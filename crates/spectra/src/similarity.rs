//! Similarity coefficients between a block's hit pattern and the error
//! vector.

use std::fmt;

/// The 2×2 contingency counts for one block over all scenario steps.
///
/// * `a11` — hit in a failing step
/// * `a10` — hit in a passing step
/// * `a01` — not hit in a failing step
/// * `a00` — not hit in a passing step
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Hit & failed.
    pub a11: u32,
    /// Hit & passed.
    pub a10: u32,
    /// Not hit & failed.
    pub a01: u32,
    /// Not hit & passed.
    pub a00: u32,
}

impl Counts {
    /// Reconstructs full counts from the columnar accumulator's state:
    /// the two *hit* cells plus the global step totals. This is the only
    /// per-block state [`crate::CountsMatrix`] stores; the miss cells
    /// are derived (`a01 = failing − a11`, `a00 = passing − a10`).
    ///
    /// # Panics
    ///
    /// Debug-asserts that the hit cells do not exceed their totals.
    #[inline]
    pub fn from_columnar(a_ef: u32, a_ep: u32, failing_steps: u32, passing_steps: u32) -> Self {
        debug_assert!(a_ef <= failing_steps && a_ep <= passing_steps);
        Counts {
            a11: a_ef,
            a10: a_ep,
            a01: failing_steps - a_ef,
            a00: passing_steps - a_ep,
        }
    }

    /// Total failing steps.
    pub fn failures(&self) -> u32 {
        self.a11 + self.a01
    }
}

/// A similarity coefficient.
///
/// `Ochiai` is the coefficient the Trader diagnosis work found most
/// effective; the others are classical alternatives used for the E1
/// coefficient ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Coefficient {
    /// `a11 / sqrt((a11+a01) * (a11+a10))`.
    Ochiai,
    /// `(a11/F) / (a11/F + a10/P)` with F/P total failing/passing steps.
    Tarantula,
    /// `a11 / (a11 + a01 + a10)`.
    Jaccard,
    /// `(a11 + a00) / n`.
    SimpleMatching,
    /// `|a11/F − a10/P|`.
    Ample,
}

impl Coefficient {
    /// All supported coefficients.
    pub const ALL: [Coefficient; 5] = [
        Coefficient::Ochiai,
        Coefficient::Tarantula,
        Coefficient::Jaccard,
        Coefficient::SimpleMatching,
        Coefficient::Ample,
    ];

    /// Computes the coefficient for one block's counts.
    ///
    /// Degenerate denominators yield 0.0 (a block never hit, or no failing
    /// steps, carries no suspicion).
    pub fn score(self, c: Counts) -> f64 {
        let a11 = c.a11 as f64;
        let a10 = c.a10 as f64;
        let a01 = c.a01 as f64;
        let a00 = c.a00 as f64;
        match self {
            Coefficient::Ochiai => {
                let denom = ((a11 + a01) * (a11 + a10)).sqrt();
                if denom == 0.0 {
                    0.0
                } else {
                    a11 / denom
                }
            }
            Coefficient::Tarantula => {
                let f = a11 + a01;
                let p = a10 + a00;
                if f == 0.0 || a11 == 0.0 {
                    return 0.0;
                }
                let fail_rate = a11 / f;
                let pass_rate = if p == 0.0 { 0.0 } else { a10 / p };
                if fail_rate + pass_rate == 0.0 {
                    0.0
                } else {
                    fail_rate / (fail_rate + pass_rate)
                }
            }
            Coefficient::Jaccard => {
                let denom = a11 + a01 + a10;
                if denom == 0.0 {
                    0.0
                } else {
                    a11 / denom
                }
            }
            Coefficient::SimpleMatching => {
                let n = a11 + a10 + a01 + a00;
                if n == 0.0 {
                    0.0
                } else {
                    (a11 + a00) / n
                }
            }
            Coefficient::Ample => {
                let f = a11 + a01;
                let p = a10 + a00;
                let fr = if f == 0.0 { 0.0 } else { a11 / f };
                let pr = if p == 0.0 { 0.0 } else { a10 / p };
                (fr - pr).abs()
            }
        }
    }
}

impl fmt::Display for Coefficient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Coefficient::Ochiai => "ochiai",
            Coefficient::Tarantula => "tarantula",
            Coefficient::Jaccard => "jaccard",
            Coefficient::SimpleMatching => "simple-matching",
            Coefficient::Ample => "ample",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(a11: u32, a10: u32, a01: u32, a00: u32) -> Counts {
        Counts { a11, a10, a01, a00 }
    }

    #[test]
    fn ochiai_known_values() {
        // Perfect correlation: hit iff failing.
        assert!((Coefficient::Ochiai.score(c(3, 0, 0, 5)) - 1.0).abs() < 1e-12);
        // a11=2, a01=1, a10=2 → 2/sqrt(3*4) = 0.577…
        let s = Coefficient::Ochiai.score(c(2, 2, 1, 0));
        assert!((s - 2.0 / (12.0f64).sqrt()).abs() < 1e-12);
        // Never hit → 0.
        assert_eq!(Coefficient::Ochiai.score(c(0, 0, 3, 3)), 0.0);
    }

    #[test]
    fn tarantula_known_values() {
        // Hit in all failures, none of the passes → 1.0.
        assert!((Coefficient::Tarantula.score(c(2, 0, 0, 4)) - 1.0).abs() < 1e-12);
        // Hit equally in failures and passes → 0.5.
        assert!((Coefficient::Tarantula.score(c(2, 4, 0, 0)) - 0.5).abs() < 1e-12);
        // No failures at all → 0.
        assert_eq!(Coefficient::Tarantula.score(c(0, 3, 0, 3)), 0.0);
    }

    #[test]
    fn jaccard_and_simple_matching() {
        assert!((Coefficient::Jaccard.score(c(2, 1, 1, 9)) - 0.5).abs() < 1e-12);
        assert!((Coefficient::SimpleMatching.score(c(2, 1, 1, 6)) - 0.8).abs() < 1e-12);
        assert_eq!(Coefficient::Jaccard.score(c(0, 0, 0, 9)), 0.0);
        assert_eq!(Coefficient::SimpleMatching.score(c(0, 0, 0, 0)), 0.0);
    }

    #[test]
    fn ample_is_rate_difference() {
        let s = Coefficient::Ample.score(c(3, 1, 1, 3));
        assert!((s - (0.75 - 0.25)).abs() < 1e-12);
    }

    #[test]
    fn counts_helpers() {
        let cc = c(1, 2, 3, 4);
        assert_eq!(cc.failures(), 4);
    }

    #[test]
    fn columnar_reconstruction() {
        let cc = Counts::from_columnar(2, 1, 5, 4);
        assert_eq!(cc, c(2, 1, 3, 3));
        assert_eq!(cc.failures(), 5);
    }

    #[test]
    fn all_lists_every_variant() {
        assert_eq!(Coefficient::ALL.len(), 5);
        for coef in Coefficient::ALL {
            // Scores are finite on a generic cell.
            assert!(coef.score(c(1, 1, 1, 1)).is_finite());
            assert!(!coef.to_string().is_empty());
        }
    }

    #[test]
    fn perfect_block_beats_noisy_block_on_all_coefficients() {
        let perfect = c(3, 0, 0, 24);
        let noisy = c(2, 10, 1, 14);
        for coef in Coefficient::ALL {
            if coef == Coefficient::SimpleMatching {
                continue; // SM is dominated by a00 — that's its known flaw.
            }
            assert!(
                coef.score(perfect) > coef.score(noisy),
                "{coef} failed to separate"
            );
        }
    }
}
