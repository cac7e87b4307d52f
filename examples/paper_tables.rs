//! Regenerates every figure/experiment table of the paper in one run —
//! the source of the numbers recorded in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release --example paper_tables
//! ```

fn main() {
    print!("{}", trader::experiments::paper_tables());
}
