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

echo "== chaos smoke: replay campaign seed 0 =="
cargo run -q --release --example chaos_campaign -- 0

echo "verify: OK"
