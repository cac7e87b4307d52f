//! The protocol spoken across the process boundary.
//!
//! Mirrors the event interfaces of paper Fig. 2: `IInputEvent` (SUO →
//! the monitor's input channel) and `IOutputEvent` (SUO → its output
//! channel).

use observe::ObsValue;
use statemachine::Event;
use std::borrow::Cow;

/// A message crossing the SUO ↔ monitor boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// An input event observed at the SUO (e.g. a remote-control key),
    /// delivered to the specification model as is.
    Input(Event),
    /// An output value observed at the SUO.
    Output {
        /// Observable name.
        name: Cow<'static, str>,
        /// Observed value.
        value: ObsValue,
    },
}

impl Message {
    /// Convenience constructor for a payload-less input message.
    pub fn input(event: impl Into<Cow<'static, str>>) -> Self {
        Message::Input(Event::plain(event))
    }

    /// Convenience constructor for an output message.
    pub fn output(name: impl Into<Cow<'static, str>>, value: impl Into<ObsValue>) -> Self {
        Message::Output {
            name: name.into(),
            value: value.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(
            Message::input("power"),
            Message::Input(Event {
                name: "power".into(),
                payload: None
            })
        );
        assert_eq!(
            Message::output("volume", 10.0),
            Message::Output {
                name: "volume".into(),
                value: ObsValue::Num(10.0)
            }
        );
    }
}
