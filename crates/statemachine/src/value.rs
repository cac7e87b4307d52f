//! Dynamic values for model variables, event payloads and outputs.

use std::fmt;

/// A dynamically typed model value.
///
/// ```
/// use statemachine::Value;
/// assert_eq!(Value::from(3) , Value::Int(3));
/// assert!(Value::from(2.0).as_f64().unwrap() == 2.0);
/// assert_eq!(Value::from(true).as_bool(), Some(true));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A signed integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A float.
    Float(f64),
    /// A string (e.g. a mode name).
    Str(String),
}

impl Value {
    /// Numeric view: `Int` and `Float` convert, `Bool` maps to 0/1.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(_) => None,
        }
    }

    /// Integer view (floats are not coerced).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(if *b { 1 } else { 0 }),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int(i) => Some(*i != 0),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric distance to another value, used by comparator thresholds.
    ///
    /// Strings compare as 0.0 when equal and +inf when different; any other
    /// non-numeric mismatch is +inf.
    pub fn distance(&self, other: &Value) -> f64 {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => {
                if a == b {
                    0.0
                } else {
                    f64::INFINITY
                }
            }
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => (a - b).abs(),
                _ => f64::INFINITY,
            },
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5).as_i64(), Some(5));
        assert_eq!(Value::from(true).as_i64(), Some(1));
        assert_eq!(Value::from(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from("x").as_f64(), None);
        assert_eq!(Value::from(0).as_bool(), Some(false));
        assert_eq!(Value::from(7).as_bool(), Some(true));
        assert_eq!(Value::from(1.0).as_i64(), None);
    }

    #[test]
    fn distance_numeric() {
        assert_eq!(Value::from(3).distance(&Value::from(5)), 2.0);
        assert_eq!(Value::from(3.5).distance(&Value::from(3)), 0.5);
        assert_eq!(Value::from(true).distance(&Value::from(1)), 0.0);
    }

    #[test]
    fn distance_strings() {
        assert_eq!(Value::from("a").distance(&Value::from("a")), 0.0);
        assert!(Value::from("a").distance(&Value::from("b")).is_infinite());
        assert!(Value::from("a").distance(&Value::from(1)).is_infinite());
    }

    #[test]
    fn display() {
        assert_eq!(Value::from(3).to_string(), "3");
        assert_eq!(Value::from("hi").to_string(), "hi");
    }
}
