//! Failure attribution: who the user blames.

use std::fmt;

/// Where the user believes a failure comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Attribution {
    /// The product itself ("my TV is broken") — maximal irritation.
    Internal,
    /// An external source ("bad broadcast, bad weather") — largely
    /// forgiven, per the paper's observation on image quality.
    External,
    /// Unclear — intermediate.
    Ambiguous,
}

impl Attribution {
    /// The irritation multiplier this attribution carries.
    ///
    /// Calibrated so that externally attributed failures of an important
    /// function irritate *less* than internally attributed failures of an
    /// equally important one — the paper's image-quality vs swivel
    /// finding.
    pub fn factor(self) -> f64 {
        match self {
            Attribution::Internal => 1.0,
            Attribution::Ambiguous => 0.55,
            Attribution::External => 0.22,
        }
    }

    /// All attributions (factorial designs).
    pub const ALL: [Attribution; 3] = [
        Attribution::Internal,
        Attribution::External,
        Attribution::Ambiguous,
    ];
}

impl fmt::Display for Attribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Attribution::Internal => "internal",
            Attribution::External => "external",
            Attribution::Ambiguous => "ambiguous",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_ordered() {
        assert!(Attribution::Internal.factor() > Attribution::Ambiguous.factor());
        assert!(Attribution::Ambiguous.factor() > Attribution::External.factor());
    }

    #[test]
    fn display() {
        assert_eq!(Attribution::Internal.to_string(), "internal");
    }
}
