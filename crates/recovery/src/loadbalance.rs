//! Load-balancing policy (IMEC's task migration, paper Sect. 4.5).
//!
//! The policy decides *when* and *where* to migrate; the mechanism (moving
//! a task's jobs between processors) lives with the platform
//! (`tvsim::StreamingPipeline::migrate_task`, `simkit::Cpu::steal_task`).

/// A migration decision: move load from one processor to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationDecision {
    /// Overloaded source processor index.
    pub from: usize,
    /// Least-loaded target processor index.
    pub to: usize,
}

/// Threshold-plus-hysteresis load balancer.
///
/// Migrates when a processor exceeds `overload_threshold` while another
/// sits below `target_threshold`; after a decision, `cooldown_checks`
/// checks pass before the next decision (migration is not free, so the
/// policy must not thrash).
///
/// ```
/// use recovery::LoadBalancer;
/// let mut lb = LoadBalancer::new(0.9, 0.6, 2);
/// let d = lb.check(&[0.97, 0.3]).unwrap();
/// assert_eq!((d.from, d.to), (0, 1));
/// // Cooldown: immediately after, no new decision.
/// assert!(lb.check(&[0.97, 0.3]).is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoadBalancer {
    overload_threshold: f64,
    target_threshold: f64,
    cooldown_checks: u32,
    cooldown_left: u32,
}

impl LoadBalancer {
    /// Creates a balancer.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < target_threshold < overload_threshold <= 1`.
    pub fn new(overload_threshold: f64, target_threshold: f64, cooldown_checks: u32) -> Self {
        assert!(
            0.0 < target_threshold
                && target_threshold < overload_threshold
                && overload_threshold <= 1.0,
            "invalid thresholds"
        );
        LoadBalancer {
            overload_threshold,
            target_threshold,
            cooldown_checks,
            cooldown_left: 0,
        }
    }

    /// Checks current loads; returns a migration decision if warranted.
    pub fn check(&mut self, loads: &[f64]) -> Option<MigrationDecision> {
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return None;
        }
        if loads.len() < 2 {
            return None;
        }
        let (from, &max) = loads
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("loads are finite"))?;
        let (to, &min) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("loads are finite"))?;
        if max > self.overload_threshold && min < self.target_threshold && from != to {
            self.cooldown_left = self.cooldown_checks;
            Some(MigrationDecision { from, to })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_decision_when_balanced() {
        let mut lb = LoadBalancer::new(0.9, 0.6, 0);
        assert!(lb.check(&[0.5, 0.5]).is_none());
        assert!(lb.check(&[0.95, 0.8]).is_none()); // no idle target
        assert!(lb.check(&[0.5, 0.2]).is_none()); // no overload
    }

    #[test]
    fn decision_picks_extremes() {
        let mut lb = LoadBalancer::new(0.9, 0.6, 0);
        let d = lb.check(&[0.7, 0.95, 0.1]).unwrap();
        assert_eq!((d.from, d.to), (1, 2));
    }

    #[test]
    fn cooldown_suppresses_thrash() {
        let mut lb = LoadBalancer::new(0.9, 0.6, 2);
        assert!(lb.check(&[0.95, 0.1]).is_some());
        assert!(lb.check(&[0.95, 0.1]).is_none());
        assert!(lb.check(&[0.95, 0.1]).is_none());
        assert!(lb.check(&[0.95, 0.1]).is_some());
    }

    #[test]
    fn single_cpu_never_migrates() {
        let mut lb = LoadBalancer::new(0.9, 0.6, 0);
        assert!(lb.check(&[0.99]).is_none());
        assert!(lb.check(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "invalid thresholds")]
    fn bad_thresholds_rejected() {
        let _ = LoadBalancer::new(0.5, 0.9, 0);
    }
}
