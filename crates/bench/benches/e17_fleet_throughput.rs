//! E17: campaign-fleet throughput — the parallel fleet executor run
//! over the seed-derived campaign population at each regression worker
//! count, judged on the bit-identical-fingerprint contract and (on
//! multi-core hosts only) on parallel speedup, with a machine-readable
//! `BENCH_e17.json` for CI artifacts. The 1-worker cell's throughput is
//! also a top-level `campaigns_per_sec_sequential`, so the bench
//! trajectory records it (recorded, not gated: it is wall-clock).
//!
//! Set `E17_QUICK=1` for the CI-sized sweep (64 campaigns, workers
//! {1, 4}) instead of the full 256-campaign {1, 2, 4, 8} sweep.
//!
//! The speedup gate mirrors E14's honesty rule: the report always
//! records `hardware_threads`, and the ≥2x scaling floor is asserted
//! only when the host can physically express it — a single-core
//! container reports ~1.0x and that is the truth, not a failure. The
//! JSON is written before the floor is judged, so a run that misses the
//! floor still leaves its numbers behind.

use chaos::fleet;
use telemetry::json::{write_bench_json, Json};
use trader::experiments::e17_fleet_throughput::{E17Config, E17Report};

/// Minimum best-cell speedup demanded when the host has ≥2 hardware
/// threads and the sweep includes a multi-worker cell.
const SPEEDUP_FLOOR: f64 = 2.0;

fn report_json(report: &E17Report, quick: bool) -> Json {
    let cells: Vec<Json> = report
        .cells
        .iter()
        .map(|cell| {
            Json::object()
                .field("workers", cell.workers.into())
                .field("fleet_ms", cell.fleet_ms.into())
                .field("campaigns_per_sec", cell.campaigns_per_sec.into())
                .field("speedup_vs_sequential", cell.speedup_vs_sequential.into())
                .field(
                    "fingerprint_matches_sequential",
                    cell.fingerprint_matches_sequential.into(),
                )
        })
        .collect();
    let sequential = report.cells.iter().find(|cell| cell.workers == 1);
    Json::object()
        .field("experiment", "e17_fleet_throughput".into())
        .field("quick", quick.into())
        .field("population", report.population.into())
        .field("reps", report.reps.into())
        .field("hardware_threads", report.hardware_threads.into())
        .field(
            "fleet_fingerprint",
            format!("{:016x}", report.fleet_fingerprint).into(),
        )
        .field("fleet_deterministic", report.fleet_deterministic.into())
        .field(
            "campaigns_per_sec_sequential",
            sequential.map_or(Json::Null, |cell| cell.campaigns_per_sec.into()),
        )
        .field("cells", cells.into())
}

fn main() {
    let quick = std::env::var_os("E17_QUICK").is_some();
    let config = if quick {
        E17Config::quick()
    } else {
        E17Config::full()
    };
    let report = fleet::e17_report(&config);
    println!("{report}");
    let path = write_bench_json("e17", &report_json(&report, quick)).expect("write BENCH_e17.json");
    println!("wrote {}", path.display());

    assert!(
        report.fleet_deterministic,
        "fleet fingerprint diverged from the sequential oracle: {report}"
    );

    // The scaling claim is only judged where the hardware can express
    // it; the fingerprint contract above is judged everywhere.
    let best_speedup = report
        .cells
        .iter()
        .map(|c| c.speedup_vs_sequential)
        .fold(0.0f64, f64::max);
    let max_workers = report.cells.iter().map(|c| c.workers).max().unwrap_or(1);
    if report.hardware_threads >= 2 && max_workers >= 2 {
        let expressible = SPEEDUP_FLOOR.min(report.hardware_threads as f64);
        assert!(
            best_speedup >= expressible,
            "{} hardware threads but best fleet speedup is {:.2}x (floor {:.1}x)",
            report.hardware_threads,
            best_speedup,
            expressible
        );
    } else {
        println!(
            "speedup floor not judged: {} hardware thread(s), max {} worker(s) swept",
            report.hardware_threads, max_workers
        );
    }
}
