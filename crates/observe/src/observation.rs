//! Typed observations of a system under observation.

use simkit::SimTime;
use std::borrow::Cow;
use std::fmt;

/// A value carried by an observation or output.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsValue {
    /// A numeric value.
    Num(f64),
    /// A symbolic value (e.g. a mode name): borrowed when it is a
    /// literal of the observed system's vocabulary.
    Text(Cow<'static, str>),
}

impl ObsValue {
    /// Numeric view, if numeric.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            ObsValue::Num(x) => Some(*x),
            ObsValue::Text(_) => None,
        }
    }

    /// Text view, if symbolic.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            ObsValue::Text(s) => Some(s),
            ObsValue::Num(_) => None,
        }
    }

    /// Overwrites `self` with `source`, reusing the existing owned
    /// `Text` buffer when both sides are owned text — the allocation-free
    /// assignment the loop hot path uses to refresh its mirrored system
    /// state on every press. Borrowed text is copied as a pointer.
    pub fn assign_from(&mut self, source: &ObsValue) {
        match (self, source) {
            (ObsValue::Text(Cow::Owned(dst)), ObsValue::Text(Cow::Owned(src))) => {
                dst.clear();
                dst.push_str(src);
            }
            (dst, src) => *dst = src.clone(),
        }
    }

    /// Numeric distance for comparator thresholds; text values are 0 when
    /// equal and +inf otherwise.
    pub fn distance(&self, other: &ObsValue) -> f64 {
        match (self, other) {
            (ObsValue::Num(a), ObsValue::Num(b)) => (a - b).abs(),
            (ObsValue::Text(a), ObsValue::Text(b)) if a == b => 0.0,
            _ => f64::INFINITY,
        }
    }
}

impl From<f64> for ObsValue {
    fn from(x: f64) -> Self {
        ObsValue::Num(x)
    }
}

impl From<i64> for ObsValue {
    fn from(x: i64) -> Self {
        ObsValue::Num(x as f64)
    }
}

impl From<&'static str> for ObsValue {
    fn from(s: &'static str) -> Self {
        ObsValue::Text(Cow::Borrowed(s))
    }
}

impl From<String> for ObsValue {
    fn from(s: String) -> Self {
        ObsValue::Text(Cow::Owned(s))
    }
}

impl fmt::Display for ObsValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsValue::Num(x) => write!(f, "{x}"),
            ObsValue::Text(s) => write!(f, "{s}"),
        }
    }
}

/// What was observed. Names are `Cow<'static, str>`: a system whose
/// vocabulary is a closed set of literals emits them borrowed, so
/// cloning an observation copies pointers, not strings; names built at
/// run time travel owned.
#[derive(Debug, Clone, PartialEq)]
pub enum ObservationKind {
    /// A user input (remote-control key press), with an optional key
    /// code (e.g. the digit pressed) that the specification model needs
    /// as event payload.
    KeyPress {
        /// Event name (e.g. `"vol_up"`, `"digit"`).
        key: Cow<'static, str>,
        /// Key code payload (e.g. the digit value).
        code: Option<i64>,
    },
    /// A component changed mode.
    Mode {
        /// Component name.
        component: Cow<'static, str>,
        /// New mode.
        mode: Cow<'static, str>,
    },
    /// A named internal value was sampled.
    Value {
        /// Value name.
        name: Cow<'static, str>,
        /// Sampled value.
        value: f64,
    },
    /// An externally visible output (what the user perceives).
    Output {
        /// Output name (e.g. `"volume"`, `"screen.mode"`).
        name: Cow<'static, str>,
        /// Output value.
        value: ObsValue,
    },
}

/// One observation: a kind, stamped with time and source.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// When it was observed.
    pub time: SimTime,
    /// Which subsystem produced it.
    pub source: Cow<'static, str>,
    /// The observed fact.
    pub kind: ObservationKind,
}

impl Observation {
    /// Creates an observation.
    pub fn new(time: SimTime, source: impl Into<Cow<'static, str>>, kind: ObservationKind) -> Self {
        Observation {
            time,
            source: source.into(),
            kind,
        }
    }

    /// Convenience: the output name/value if this is an output observation.
    pub fn as_output(&self) -> Option<(&str, &ObsValue)> {
        match &self.kind {
            ObservationKind::Output { name, value } => Some((name, value)),
            _ => None,
        }
    }

    /// Builds a key-press observation.
    pub fn key_press(
        time: SimTime,
        source: impl Into<Cow<'static, str>>,
        key: impl Into<Cow<'static, str>>,
        code: Option<i64>,
    ) -> Self {
        Observation::new(
            time,
            source,
            ObservationKind::KeyPress {
                key: key.into(),
                code,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_views() {
        assert_eq!(ObsValue::from(2.5).as_num(), Some(2.5));
        assert_eq!(ObsValue::from("on").as_text(), Some("on"));
        assert_eq!(ObsValue::from(3i64), ObsValue::Num(3.0));
        assert_eq!(ObsValue::from("x".to_owned()).as_num(), None);
    }

    #[test]
    fn distances() {
        assert_eq!(ObsValue::Num(3.0).distance(&ObsValue::Num(5.0)), 2.0);
        assert_eq!(
            ObsValue::Text("a".into()).distance(&ObsValue::Text("a".into())),
            0.0
        );
        assert!(ObsValue::Text("a".into())
            .distance(&ObsValue::Num(0.0))
            .is_infinite());
    }

    #[test]
    fn accessors() {
        let obs = Observation::new(
            SimTime::ZERO,
            "tv",
            ObservationKind::Output {
                name: "volume".into(),
                value: ObsValue::Num(10.0),
            },
        );
        let (name, v) = obs.as_output().unwrap();
        assert_eq!(name, "volume");
        assert_eq!(v.as_num(), Some(10.0));

        let key = Observation::key_press(SimTime::ZERO, "rc", "ok", None);
        assert!(key.as_output().is_none());
        assert_eq!(
            key.kind,
            ObservationKind::KeyPress {
                key: "ok".into(),
                code: None
            }
        );
        let digit = Observation::key_press(SimTime::ZERO, "rc", "digit", Some(7));
        assert_eq!(
            digit.kind,
            ObservationKind::KeyPress {
                key: "digit".into(),
                code: Some(7)
            }
        );
    }

    #[test]
    fn display() {
        assert_eq!(ObsValue::Num(1.5).to_string(), "1.5");
        assert_eq!(ObsValue::Text("hd".into()).to_string(), "hd");
    }
}
