//! # detect — run-time error detectors
//!
//! Error-detection mechanisms of the Trader project beyond model
//! comparison (paper Sect. 4.3):
//!
//! * [`WatchdogDetector`] — timeliness: a heartbeat must arrive within its
//!   deadline (the real-time monitoring the paper contrasts with MaC-RT);
//! * [`DeadlockDetector`] — hardware-based deadlock detection via wait-for
//!   graph cycle search;
//! * [`ModeConsistencyDetector`] — the mode-consistency checking of Sözer
//!   et al. that "turned out to be successful to detect teletext problems
//!   due to a loss of synchronization between components".
//!
//! All detectors implement [`Detector`] and report [`ErrorEvent`]s. The
//! closed loop runs its detectors side by side — the model comparator,
//! the mode detector and the sleep-timer deadline monitor — the paper's
//! point that a complex system hosts *several* awareness monitors for
//! different aspects and fault classes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deadlock;
pub mod detector;
pub mod mode_consistency;
pub mod watchdog;

pub use deadlock::{DeadlockDetector, WaitForGraph};
pub use detector::{Detector, ErrorEvent, ErrorSeverity};
pub use mode_consistency::{ConsistencyRule, ModeConsistencyDetector};
pub use watchdog::WatchdogDetector;
