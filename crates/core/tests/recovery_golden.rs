//! Golden report for E4, partial recovery against a full restart.
//!
//! E4 drives `RecoveryManager` through one restart of the teletext
//! unit, either alone or with every unit. This test pins the whole
//! report: the rendered table field by field, and an FNV-1a fingerprint
//! of its `Debug` rendering. A change to the recovery manager must
//! leave both identical.

use trader::experiments::e4_partial_recovery;

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn e4_report_is_pinned() {
    let report = e4_partial_recovery::run();
    let table = report.to_string();
    let cells: Vec<Vec<&str>> = table
        .lines()
        .filter(|line| line.starts_with('|') && line.contains("restart"))
        .map(|line| {
            line.split('|')
                .map(str::trim)
                .filter(|cell| !cell.is_empty())
                .collect()
        })
        .collect();
    assert_eq!(
        cells,
        [
            ["partial (restart unit)", "200.00", "4000", "0", "99.50%"],
            ["full (restart all)", "4000.00", "4000", "0", "60.00%"],
        ],
        "{report}"
    );
    assert_eq!(
        fnv1a(&format!("{report:?}")),
        0x3d4a_f5e2_e339_ca40,
        "{report}"
    );
}
