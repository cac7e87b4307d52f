//! Structured flight-recorder events.
//!
//! Every event is a fixed-shape record: a virtual time, a `&'static str`
//! name following the `crate.component.metric` convention, and a small
//! payload. Names are static so recording an event never allocates —
//! the recorder must stay cheap enough to leave on inside the awareness
//! loop (the probe-effect budget of E15).

use crate::json::Json;
use simkit::SimTime;

/// The payload of a flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A span (named region of work) was entered.
    SpanEnter,
    /// The matching span was exited.
    SpanExit,
    /// A counter changed by `delta` (the running total lives in the
    /// metrics registry; the ring records the change for the timeline).
    Counter {
        /// Signed change applied to the counter.
        delta: i64,
    },
    /// A component moved between named states (e.g. degradation modes).
    Transition {
        /// State before the move.
        from: &'static str,
        /// State after the move.
        to: &'static str,
    },
    /// A gauge was set to an instantaneous value.
    Gauge {
        /// The observed value.
        value: i64,
    },
}

impl EventKind {
    /// Stable lowercase type tag used in JSONL output.
    pub fn type_label(&self) -> &'static str {
        match self {
            EventKind::SpanEnter => "span_enter",
            EventKind::SpanExit => "span_exit",
            EventKind::Counter { .. } => "counter",
            EventKind::Transition { .. } => "transition",
            EventKind::Gauge { .. } => "gauge",
        }
    }
}

/// One flight-recorder record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// When the event happened, in simulated time: the timeline replays
    /// byte for byte because no host clock can reach it.
    pub at: SimTime,
    /// Dotted `crate.component.metric` name.
    pub name: &'static str,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Renders the event as a single-line JSON object.
    ///
    /// Field order is fixed (`t_ns`, `clock`, `type`, `name`, payload)
    /// so dumps are byte-identical across same-seed runs and friendly
    /// to `grep`. `clock` is always `"virtual"`: it names the timeline's
    /// one clock for readers of the dump.
    pub fn to_json(&self) -> Json {
        let base = Json::object()
            .field("t_ns", self.at.as_nanos().into())
            .field("clock", "virtual".into())
            .field("type", self.kind.type_label().into())
            .field("name", self.name.into());
        match &self.kind {
            EventKind::SpanEnter | EventKind::SpanExit => base,
            EventKind::Counter { delta } => base.field("delta", (*delta).into()),
            EventKind::Transition { from, to } => {
                base.field("from", (*from).into()).field("to", (*to).into())
            }
            EventKind::Gauge { value } => base.field("value", (*value).into()),
        }
    }

    /// Renders the event as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        self.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_shapes_are_stable() {
        let e = Event {
            at: SimTime::from_micros(12),
            name: "awareness.comparator.errors",
            kind: EventKind::Counter { delta: 1 },
        };
        assert_eq!(
            e.to_jsonl(),
            r#"{"t_ns":12000,"clock":"virtual","type":"counter","name":"awareness.comparator.errors","delta":1}"#
        );

        let e = Event {
            at: SimTime::from_nanos(5),
            name: "awareness.supervisor.mode",
            kind: EventKind::Transition {
                from: "normal",
                to: "shedding",
            },
        };
        assert_eq!(
            e.to_jsonl(),
            r#"{"t_ns":5,"clock":"virtual","type":"transition","name":"awareness.supervisor.mode","from":"normal","to":"shedding"}"#
        );

        let e = Event {
            at: SimTime::ZERO,
            name: "core.loop.step",
            kind: EventKind::SpanEnter,
        };
        assert_eq!(
            e.to_jsonl(),
            r#"{"t_ns":0,"clock":"virtual","type":"span_enter","name":"core.loop.step"}"#
        );
    }
}
