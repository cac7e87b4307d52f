//! `dbench`: the repository's benchmark of the closed dependability
//! loop, end to end and layer by layer.
//!
//! ```sh
//! cargo run --release --manifest-path crates/bench/src/bin/dbench/Cargo.toml -- \
//!     --workload steady-session --seed 0 --seconds 10 --trace 0
//! ```
//!
//! Each run executes one workload in its own process: set-up, one
//! warm-up unit, a measured phase of `--seconds`, then the correctness
//! checks. Untraced runs report the end-to-end metrics; `--trace 1`
//! runs a smaller traced sample and reports per-layer metrics, writing
//! its spans to `target/dbench/trace-<workload>.jsonl`. Every metric is
//! printed as a table row; the last line of standard output is the JSON
//! result. The exit status is non-zero when any check failed. See the
//! README next to this package for the workloads and metrics.

mod alloc;
mod fleet;
mod grid;
mod phase;
mod press;
mod report;
mod session;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trader::awareness::{CompareSpec, Configuration, MonitorBuilder};
use trader::simkit::SimDuration;
use trader::tvsim::{tv_spec_machine, KeySequence, TvSystem};
use trader::{TimedScenario, TvDependabilityLoop};

use report::Report;
use stats::median;
use trace::Span;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SteadySession,
    FaultStorm,
    ScorecardGrid,
    CampaignFleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SteadySession,
        Workload::FaultStorm,
        Workload::ScorecardGrid,
        Workload::CampaignFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadySession => "steady-session",
            Workload::FaultStorm => "fault-storm",
            Workload::ScorecardGrid => "scorecard-grid",
            Workload::CampaignFleet => "campaign-fleet",
        }
    }
}

/// The parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Executor threads for the grid and fleet: at most two, and never
    /// more than the host has.
    pub workers: usize,
    pub hardware_threads: usize,
}

impl Args {
    /// The calibration matching this run's workload: one thread for the
    /// session loop; for `fault-storm`, whose presses wait for every
    /// diagnosis scoring shard — one per hardware thread, at most 8
    /// (`DiagnosisConfig::new`) — that many threads with fixed shares;
    /// for the grid and fleet, the workers, stealing work.
    pub fn calibration(&self) -> phase::Calibration {
        match self.workload {
            Workload::SteadySession => phase::Calibration::Fixed(1),
            Workload::FaultStorm => phase::Calibration::Fixed(self.hardware_threads.min(8)),
            Workload::ScorecardGrid | Workload::CampaignFleet => {
                phase::Calibration::Stealing(self.workers)
            }
        }
    }
}

const USAGE: &str =
    "usage: dbench --workload <steady-session|fault-storm|scorecard-grid|campaign-fleet> \
     [--seed <n>] [--seconds <s>] [--trace [0|1]]";

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut pending: Option<String> = raw.next();
    while let Some(flag) = pending.take() {
        let mut value = || raw.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or(format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds < 0.0 {
                    return Err("--seconds must be a finite, non-negative number".into());
                }
            }
            "--trace" => {
                // `--trace` alone enables tracing; `--trace 0|1` sets it.
                trace = true;
                match raw.next() {
                    Some(v) if v == "0" || v == "1" => trace = v == "1",
                    other => pending = other,
                }
                continue;
            }
            other => return Err(format!("unknown option {other}")),
        }
        pending = raw.next();
    }
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        workers: hardware_threads.min(2),
        hardware_threads,
    })
}

/// Median reference-host microseconds of `f` over 41 calls.
fn median_us<R>(mut f: impl FnMut() -> R) -> f64 {
    let scale = phase::Calibration::Fixed(1).median_scale();
    let times: Vec<f64> = (0..41)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e6 * scale
        })
        .collect();
    median(&times)
}

/// The one-time costs every loop run pays before its first press.
fn record_setup_layers(report: &mut Report) {
    let empty = TimedScenario::from_sequence(&KeySequence::new(Vec::new()), SimDuration::ZERO);
    let core = median_us(|| TvDependabilityLoop::closed(1).run(&empty));
    report.set("core.setup_us", "us", core, 41);
    report.set(
        "statemachine.build_us",
        "us",
        median_us(tv_spec_machine),
        41,
    );
    report.set("tvsim.new_us", "us", median_us(TvSystem::new), 41);
    let machine = tv_spec_machine();
    let build = median_us(|| {
        MonitorBuilder::new(&machine)
            .configuration(
                Configuration::new()
                    .with_default_spec(CompareSpec::exact().with_max_consecutive(0)),
            )
            .output_delay(SimDuration::from_micros(500))
            .build()
    });
    report.set("awareness.build_us", "us", build, 41);
}

/// Records `trace.attributed_frac` — the share of the root spans' time
/// that the per-layer self times account for — and fails the run below
/// 0.95.
pub fn record_trace_totals(report: &mut Report, spans: &[Span]) {
    let roots = trace::root_ns(spans);
    let attributed: u64 = trace::layers(spans).values().map(|l| l.self_ns).sum();
    let frac = attributed as f64 / roots.max(1) as f64;
    report.set("trace.attributed_frac", "ratio", frac, spans.len());
    if frac < 0.95 {
        report.violation(format!("trace.attributed_frac {frac:.4} < 0.95"));
    }
}

/// Writes the traced run's spans to `target/dbench/trace-<workload>.jsonl`.
pub fn write_trace(report: &mut Report, spans: &[Span]) {
    let path = PathBuf::from(format!("target/dbench/trace-{}.jsonl", report.workload));
    match trace::write_jsonl(&path, spans) {
        Ok(()) => println!("trace: {} spans -> {}", spans.len(), path.display()),
        Err(e) => report.violation(format!("writing {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(args.workload.name(), args.trace);
    println!(
        "dbench workload={} seed={} seconds={} trace={} hardware_threads={} workers={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.hardware_threads,
        args.workers
    );
    if args.trace {
        record_setup_layers(&mut report);
    }
    match args.workload {
        Workload::SteadySession => session::steady_session(&args, &mut report),
        Workload::FaultStorm => session::fault_storm(&args, &mut report),
        Workload::ScorecardGrid => grid::scorecard_grid(&args, &mut report),
        Workload::CampaignFleet => fleet::campaign_fleet(&args, &mut report),
    }
    if !args.trace {
        phase::record_peak_rss(&mut report);
    }
    report.set("hardware_threads", "count", args.hardware_threads as f64, 1);
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn command_line_forms() {
        let a = parse("--workload fault-storm --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::FaultStorm, 7, 3.0, true)
        );
        assert!(!parse("--workload scorecard-grid --trace 0").unwrap().trace);
        let flag = parse("--workload campaign-fleet --trace --seed 4").unwrap();
        assert!(flag.trace);
        assert_eq!(flag.seed, 4);
        let defaults = parse("--workload steady-session").unwrap();
        assert_eq!(
            (defaults.seed, defaults.seconds, defaults.trace),
            (0, 10.0, false)
        );
        assert!(defaults.workers >= 1 && defaults.workers <= 2);
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload steady-session --threads 4").is_err());
        assert!(parse("--workload steady-session --seconds inf").is_err());
    }
}
