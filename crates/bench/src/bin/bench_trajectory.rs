//! Aggregates every `BENCH_*.json` into `BENCH_trajectory.json` and
//! (optionally) gates it against a previous commit's trajectory.
//!
//! ```sh
//! cargo run -p bench --bin bench_trajectory                    # collect + write
//! cargo run -p bench --bin bench_trajectory -- --prev old.json # + regression gate
//! ```
//!
//! Flags: `--root <dir>` (default: workspace root) — where the
//! `BENCH_*.json` files live; `--out <file>` (default:
//! `<root>/BENCH_trajectory.json`); `--prev <file>` — a previous
//! trajectory to diff against under the curated gate table. A missing
//! `--prev` file is not an error (first run, cold cache): the gate is
//! skipped with a note. Any regression prints and exits nonzero.

use std::path::PathBuf;
use std::process::ExitCode;

use bench::trajectory::{collect, diff};
use telemetry::json::{workspace_root, Json};

fn main() -> ExitCode {
    let mut root = workspace_root();
    let mut out: Option<PathBuf> = None;
    let mut prev: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--root" => root = PathBuf::from(value("--root")),
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--prev" => prev = Some(PathBuf::from(value("--prev"))),
            other => {
                eprintln!("unknown flag {other} (expected --root/--out/--prev)");
                return ExitCode::FAILURE;
            }
        }
    }
    let out = out.unwrap_or_else(|| root.join("BENCH_trajectory.json"));

    let trajectory = collect(&root);
    let benches = trajectory.get("benches").map_or(0, |b| b.entries().len());
    if let Err(e) = std::fs::write(&out, trajectory.render() + "\n") {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("collected {benches} bench report(s) into {}", out.display());
    for skipped in trajectory.get("skipped").map_or(&[][..], |s| s.items()) {
        println!("  skipped unparsable {}", skipped.render());
    }

    let Some(prev_path) = prev else {
        println!("no --prev given; regression gate skipped");
        return ExitCode::SUCCESS;
    };
    let previous = match std::fs::read_to_string(&prev_path) {
        Ok(text) => match Json::parse(&text) {
            Ok(json) => json,
            Err(e) => {
                eprintln!(
                    "previous trajectory {} is unparsable ({e}); gate failed",
                    prev_path.display()
                );
                return ExitCode::FAILURE;
            }
        },
        Err(_) => {
            println!(
                "previous trajectory {} not found (first run?); gate skipped",
                prev_path.display()
            );
            return ExitCode::SUCCESS;
        }
    };

    let regressions = diff(&previous, &trajectory);
    if regressions.is_empty() {
        println!(
            "trajectory gate: no regressions against {}",
            prev_path.display()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("trajectory gate: {} regression(s):", regressions.len());
        for regression in &regressions {
            eprintln!("  {regression}");
        }
        ExitCode::FAILURE
    }
}
