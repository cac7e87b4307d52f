//! The `paper_tables` text, pinned byte for byte.
//!
//! EXPERIMENTS.md quotes its numbers from this text, and several of its
//! tables read block coverage (E1 ranks spectra, E9 counts instrumented
//! blocks, F1 diagnoses from coverage rows). The text is deterministic,
//! so its line count and an FNV-1a fingerprint of its bytes pin every
//! table at once: a change to coverage recording, the monitor or any
//! experiment that moves one figure fails here.

use trader::experiments::paper_tables;

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn paper_tables_text_is_pinned() {
    let text = paper_tables();
    assert_eq!(text.lines().count(), 136, "{text}");
    assert_eq!(fnv1a(&text), 0xfbde_a048_42d1_8a33, "{text}");
}
