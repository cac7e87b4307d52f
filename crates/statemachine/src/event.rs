//! Named events with optional payloads.

use crate::value::Value;
use std::borrow::Cow;
use std::fmt;

/// An event delivered to (or emitted by) a machine.
///
/// ```
/// use statemachine::{Event, Value};
/// let plain = Event::plain("power");
/// let keyed = Event::with_payload("digit", Value::from(7));
/// assert_eq!(plain.name, "power");
/// assert_eq!(keyed.payload, Some(Value::Int(7)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name, matched against [`Trigger::On`](crate::Trigger::On);
    /// borrowed when it is a literal, so cloning the event is cheap.
    pub name: Cow<'static, str>,
    /// Optional payload, readable by guards/actions via
    /// [`Expr::Payload`](crate::Expr::Payload).
    pub payload: Option<Value>,
}

impl Event {
    /// Creates a payload-less event.
    pub fn plain(name: impl Into<Cow<'static, str>>) -> Self {
        Event {
            name: name.into(),
            payload: None,
        }
    }

    /// Creates an event carrying a payload.
    pub fn with_payload(name: impl Into<Cow<'static, str>>, payload: impl Into<Value>) -> Self {
        Event {
            name: name.into(),
            payload: Some(payload.into()),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.payload {
            Some(p) => write!(f, "{}({})", self.name, p),
            None => write!(f, "{}", self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let e = Event::plain("up");
        assert_eq!(e.name, "up");
        assert!(e.payload.is_none());
        let e = Event::with_payload("digit", 3);
        assert_eq!(e.payload, Some(Value::Int(3)));
    }

    #[test]
    fn display() {
        assert_eq!(Event::plain("up").to_string(), "up");
        assert_eq!(Event::with_payload("d", 3).to_string(), "d(3)");
    }
}
