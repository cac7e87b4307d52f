//! Crash-consistent micro-reboot checkpoints with validated integrity.
//!
//! The paper's local-recovery principle (Sect. 4.5) is that rebooting the
//! whole TV because one unit wedged is exactly the user-visible failure
//! awareness exists to prevent. This module provides the storage side of
//! micro-reboots: a [`CheckpointVault`] keeps a bounded per-unit history
//! of **sealed** snapshots — each stamped with a seed-derived FNV-1a
//! fingerprint computed over the unit name, capture time, generation id,
//! and every key/value pair. On restore the fingerprint is re-validated;
//! a corrupt or torn checkpoint ([`CheckpointVault::corrupt_latest`]
//! injects a bit flip) is skipped generation-by-generation until the
//! newest *good* one is found. Only when the whole history is bad does
//! the caller escalate to a full restart.
//!
//! Crash consistency is the caller's side of the contract: snapshots must
//! be taken from error-free windows and reconciled after restore. The
//! closed loop's unit recovery, the vault's one user, replays the
//! per-unit key-press journal it keeps alongside.

use simkit::SimTime;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};

/// A unit's state snapshot: named scalar values (the lowest common
/// denominator the fault-tolerance library serializes). Keys are
/// `Cow<'static, str>`, so a unit whose state names are literals
/// checkpoints without copying them; names built at run time are
/// stored owned.
pub type Snapshot = BTreeMap<Cow<'static, str>, f64>;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A snapshot sealed with its integrity fingerprint.
#[derive(Debug, Clone, PartialEq)]
struct SealedSnapshot {
    /// Virtual time the snapshot was captured at.
    time: SimTime,
    /// Monotonically increasing generation id (vault-wide).
    generation: u64,
    /// Seed-derived FNV-1a fingerprint of the payload.
    fingerprint: u64,
    /// The checkpointed key/value state.
    state: Snapshot,
}

/// Outcome of [`CheckpointVault::restore_latest`].
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreOutcome {
    /// A valid checkpoint was found (newest good generation).
    Restored {
        /// Generation id of the restored snapshot.
        generation: u64,
        /// Capture time of the restored snapshot.
        time: SimTime,
        /// The validated state.
        state: Snapshot,
        /// Corrupt newer generations skipped (and dropped) on the way.
        skipped: u64,
    },
    /// Every generation in the history failed validation.
    Exhausted {
        /// Corrupt generations dropped from the history.
        dropped: u64,
    },
    /// The unit has no checkpoint history at all.
    NoHistory,
}

/// A bounded per-unit store of fingerprint-sealed snapshots.
///
/// ```
/// use recovery::{CheckpointVault, RestoreOutcome, Snapshot};
/// use simkit::SimTime;
///
/// let mut vault = CheckpointVault::new(7, 4);
/// let mut state = Snapshot::new();
/// state.insert("volume".into(), 20.0);
/// let generation = vault.save("audio", SimTime::from_millis(5), state.clone());
/// match vault.restore_latest("audio") {
///     RestoreOutcome::Restored { generation: g, state: s, skipped, .. } => {
///         assert_eq!(g, generation);
///         assert_eq!(s, state);
///         assert_eq!(skipped, 0);
///     }
///     other => panic!("expected a restore, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointVault {
    seed: u64,
    capacity: usize,
    next_generation: u64,
    per_unit: BTreeMap<String, VecDeque<SealedSnapshot>>,
}

impl CheckpointVault {
    /// Creates an empty vault keeping at most `capacity` generations per
    /// unit. The `seed` keys the fingerprints so two vaults with
    /// different seeds never validate each other's checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(seed: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        CheckpointVault {
            seed,
            capacity,
            next_generation: 0,
            per_unit: BTreeMap::new(),
        }
    }

    /// Seals `state` and appends it to `unit`'s history, evicting the
    /// oldest generation when at capacity. Returns the generation id.
    pub fn save(&mut self, unit: &str, time: SimTime, state: Snapshot) -> u64 {
        let generation = self.next_generation;
        self.next_generation += 1;
        let fingerprint = seal_fingerprint(self.seed, unit, time, generation, &state);
        // Allocate a key only for a new unit: most saves find theirs.
        if !self.per_unit.contains_key(unit) {
            self.per_unit.insert(unit.to_string(), VecDeque::new());
        }
        let history = self.per_unit.get_mut(unit).expect("inserted above");
        if history.len() == self.capacity {
            history.pop_front();
        }
        history.push_back(SealedSnapshot {
            time,
            generation,
            fingerprint,
            state,
        });
        generation
    }

    /// Number of generations currently stored for `unit`.
    pub fn count(&self, unit: &str) -> usize {
        self.per_unit.get(unit).map_or(0, VecDeque::len)
    }

    /// The newest stored generation per unit, in unit-name order — the
    /// forensic-header view of where a replay would restart from.
    pub fn latest_generations(&self) -> Vec<(String, u64)> {
        self.per_unit
            .iter()
            .filter_map(|(unit, h)| h.back().map(|s| (unit.clone(), s.generation)))
            .collect()
    }

    /// Restores the newest generation of `unit` that passes fingerprint
    /// validation, dropping corrupt newer generations on the way. Returns
    /// [`RestoreOutcome::Exhausted`] when the whole history is bad (the
    /// history is then empty) and [`RestoreOutcome::NoHistory`] when the
    /// unit was never checkpointed.
    pub fn restore_latest(&mut self, unit: &str) -> RestoreOutcome {
        let Some(history) = self.per_unit.get_mut(unit) else {
            return RestoreOutcome::NoHistory;
        };
        if history.is_empty() {
            return RestoreOutcome::NoHistory;
        }
        let mut skipped = 0u64;
        while let Some(candidate) = history.pop_back() {
            let expect = seal_fingerprint(
                self.seed,
                unit,
                candidate.time,
                candidate.generation,
                &candidate.state,
            );
            if candidate.fingerprint == expect {
                // Valid: keep it as the new head so repeated restores of
                // the same generation keep working.
                let outcome = RestoreOutcome::Restored {
                    generation: candidate.generation,
                    time: candidate.time,
                    state: candidate.state.clone(),
                    skipped,
                };
                history.push_back(candidate);
                return outcome;
            }
            skipped += 1;
        }
        RestoreOutcome::Exhausted { dropped: skipped }
    }

    /// Chaos hook: flips `bit` (0–63) of one stored value in `unit`'s
    /// newest snapshot **without resealing** — a silent data corruption
    /// the fingerprint must catch. Returns true if anything was flipped.
    pub fn corrupt_latest(&mut self, unit: &str, bit: u32) -> bool {
        let Some(snap) = self.per_unit.get_mut(unit).and_then(VecDeque::back_mut) else {
            return false;
        };
        let Some((_, value)) = snap.state.iter_mut().next() else {
            return false;
        };
        *value = f64::from_bits(value.to_bits() ^ (1u64 << (bit % 64)));
        true
    }
}

/// The seed-derived FNV-1a fingerprint a `SealedSnapshot` carries.
fn seal_fingerprint(
    seed: u64,
    unit: &str,
    time: SimTime,
    generation: u64,
    state: &Snapshot,
) -> u64 {
    let mut h = FNV_OFFSET;
    let mix_u64 = |v: u64, h: &mut u64| {
        for b in v.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(FNV_PRIME);
        }
    };
    mix_u64(seed, &mut h);
    for b in unit.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    mix_u64(time.as_nanos(), &mut h);
    mix_u64(generation, &mut h);
    for (key, value) in state.iter() {
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        mix_u64(value.to_bits(), &mut h);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(pairs: &[(&str, f64)]) -> Snapshot {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string().into(), *v))
            .collect()
    }

    #[test]
    fn save_restore_round_trips() {
        let mut vault = CheckpointVault::new(42, 4);
        let state = snap(&[("page", 100.0), ("ui_on", 1.0)]);
        let g = vault.save("teletext", SimTime::from_millis(10), state.clone());
        match vault.restore_latest("teletext") {
            RestoreOutcome::Restored {
                generation,
                time,
                state: restored,
                skipped,
            } => {
                assert_eq!(generation, g);
                assert_eq!(time, SimTime::from_millis(10));
                assert_eq!(restored, state);
                assert_eq!(skipped, 0);
            }
            other => panic!("expected restore, got {other:?}"),
        }
        // Restoring again still works: the valid head stays stored.
        assert!(matches!(
            vault.restore_latest("teletext"),
            RestoreOutcome::Restored { .. }
        ));
    }

    #[test]
    fn corrupt_checkpoint_falls_back_a_generation() {
        let mut vault = CheckpointVault::new(7, 4);
        vault.save("audio", SimTime::from_millis(1), snap(&[("volume", 20.0)]));
        vault.save("audio", SimTime::from_millis(2), snap(&[("volume", 25.0)]));
        assert!(vault.corrupt_latest("audio", 3));
        match vault.restore_latest("audio") {
            RestoreOutcome::Restored { state, skipped, .. } => {
                assert_eq!(state, snap(&[("volume", 20.0)]));
                assert_eq!(skipped, 1);
            }
            other => panic!("expected fallback restore, got {other:?}"),
        }
    }

    #[test]
    fn torn_checkpoint_detected() {
        let mut vault = CheckpointVault::new(7, 4);
        vault.save(
            "screen",
            SimTime::from_millis(1),
            snap(&[("menu", 0.0), ("pip", 1.0)]),
        );
        // Tear the sealed checkpoint: one key is lost without resealing.
        let torn = vault
            .per_unit
            .get_mut("screen")
            .and_then(VecDeque::back_mut);
        assert!(torn.expect("saved").state.remove("menu").is_some());
        assert_eq!(
            vault.restore_latest("screen"),
            RestoreOutcome::Exhausted { dropped: 1 }
        );
    }

    #[test]
    fn whole_bad_history_exhausts() {
        let mut vault = CheckpointVault::new(7, 4);
        for i in 0..3 {
            vault.save("tuner", SimTime::from_millis(i), snap(&[("ch", i as f64)]));
            vault.corrupt_latest("tuner", 0);
        }
        assert_eq!(
            vault.restore_latest("tuner"),
            RestoreOutcome::Exhausted { dropped: 3 }
        );
        // The history is spent; the next restore sees no history.
        assert_eq!(vault.restore_latest("tuner"), RestoreOutcome::NoHistory);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut vault = CheckpointVault::new(7, 2);
        let g0 = vault.save("sleep", SimTime::from_millis(0), snap(&[("m", 0.0)]));
        let g1 = vault.save("sleep", SimTime::from_millis(1), snap(&[("m", 15.0)]));
        let g2 = vault.save("sleep", SimTime::from_millis(2), snap(&[("m", 30.0)]));
        assert_eq!(vault.count("sleep"), 2);
        assert!(g0 < g1 && g1 < g2);
        assert_eq!(vault.latest_generations(), vec![("sleep".to_string(), g2)]);
        // Only g1 and g2 remain; corrupting both exhausts exactly 2.
        vault.corrupt_latest("sleep", 1);
        match vault.restore_latest("sleep") {
            RestoreOutcome::Restored { generation, .. } => assert_eq!(generation, g1),
            other => panic!("expected g1, got {other:?}"),
        }
    }

    #[test]
    fn different_seed_rejects_foreign_seal() {
        let mut a = CheckpointVault::new(1, 2);
        a.save("swivel", SimTime::from_millis(1), snap(&[("angle", 15.0)]));
        // Replaying the same content under another seed produces a
        // different fingerprint.
        let fp1 = seal_fingerprint(
            1,
            "swivel",
            SimTime::from_millis(1),
            0,
            &snap(&[("angle", 15.0)]),
        );
        let fp2 = seal_fingerprint(
            2,
            "swivel",
            SimTime::from_millis(1),
            0,
            &snap(&[("angle", 15.0)]),
        );
        assert_ne!(fp1, fp2);
    }

    #[test]
    fn seal_bytes_are_pinned() {
        // A borrowed key, an owned key and a NaN payload: the seal hashes
        // key bytes and raw value bits, whatever holds them.
        let mut state = Snapshot::new();
        state.insert(Cow::Borrowed("count"), 3.0);
        state.insert(
            Cow::Owned(format!("key{}", 7)),
            f64::from_bits(0x7ff8_0000_0000_0001),
        );
        let fp = seal_fingerprint(0xC0DE, "teletext", SimTime::from_millis(40), 5, &state);
        assert_eq!(fp, 0x2aa2_2756_5235_e3ea);
    }

    #[test]
    fn latest_generations_lists_units_in_order() {
        let mut vault = CheckpointVault::new(7, 4);
        vault.save("tuner", SimTime::from_millis(1), snap(&[("ch", 1.0)]));
        vault.save("audio", SimTime::from_millis(2), snap(&[("v", 2.0)]));
        let g = vault.save("audio", SimTime::from_millis(3), snap(&[("v", 3.0)]));
        let gens = vault.latest_generations();
        assert_eq!(gens.len(), 2);
        assert_eq!(gens[0].0, "audio");
        assert_eq!(gens[0].1, g);
        assert_eq!(gens[1].0, "tuner");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = CheckpointVault::new(0, 0);
    }
}
