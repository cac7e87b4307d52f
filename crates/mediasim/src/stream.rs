//! Synthetic media streams with seeded corruption.
//!
//! Customers "expect that products can cope with deviations from coding
//! standards or bad image quality" (paper Sect. 2): the corrupt frames in
//! a [`MediaStream`] are exactly such input faults.

use simkit::SimRng;
use std::collections::BTreeSet;

/// A synthetic elementary stream: a frame count plus the set of corrupt
/// frame indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MediaStream {
    frames: u64,
    corrupt: BTreeSet<u64>,
}

impl MediaStream {
    /// A clean stream of `frames` frames.
    pub fn clean(frames: u64) -> Self {
        MediaStream {
            frames,
            corrupt: BTreeSet::new(),
        }
    }

    /// A stream where each frame is independently corrupt with
    /// probability `p` (deterministic from `seed`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_corruption(frames: u64, p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let mut rng = SimRng::seed(seed);
        let corrupt = (0..frames).filter(|_| rng.chance(p)).collect();
        MediaStream { frames, corrupt }
    }

    /// Total frames.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// True if `index` is corrupt.
    pub fn is_corrupt(&self, index: u64) -> bool {
        self.corrupt.contains(&index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_stream_has_no_corruption() {
        let s = MediaStream::clean(100);
        assert_eq!(s.frames(), 100);
        assert_eq!(s.corrupt.len(), 0);
        assert!(!s.is_corrupt(5));
    }

    #[test]
    fn corruption_is_seeded_and_bounded() {
        let a = MediaStream::with_corruption(1000, 0.1, 7);
        let b = MediaStream::with_corruption(1000, 0.1, 7);
        assert_eq!(a, b);
        assert!(a.corrupt.len() > 50 && a.corrupt.len() < 200);
    }
}
