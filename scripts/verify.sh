#!/bin/sh
# Tier-1 verification plus a chaos smoke: what CI runs on every change.
set -eu
cd "$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)"

echo "== format (rustfmt, check only) =="
cargo fmt --all --check

echo "== build (release) =="
cargo build --release

echo "== test (workspace) =="
cargo test -q

echo "== test (dbench, its own package and lock file) =="
cargo test -q --offline --locked --manifest-path crates/bench/src/bin/dbench/Cargo.toml

echo "== clippy (all targets, warnings are errors) =="
cargo clippy --all-targets -- -D warnings

echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== chaos smoke: replay campaign seed 0 =="
cargo run -q --release --example chaos_campaign -- 0

echo "== awareness smoke: printer jam light (time-based comparison) =="
cargo run -q --release --example printer_awareness

echo "verify: OK"
