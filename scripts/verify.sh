#!/bin/sh
# Tier-1 verification plus a chaos smoke: what CI runs on every change.
set -eu
cd "$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)"

echo "== format (rustfmt, check only) =="
cargo fmt --all --check

echo "== unreached pub item guard (only the named exceptions may be left) =="
scripts/unreached_pub.sh

echo "== unreached guard self-check: an accessor named like its field, an unread field, a variant only matched and a counter only incremented are listed; a field only compared is not =="
scratch=$(mktemp -d "${TMPDIR:-/tmp}/unreached.XXXXXX")
trap 'rm -rf "$scratch"' EXIT INT TERM
tar -c --exclude=target crates tests examples | tar -x -C "$scratch"
# `channel_epoch` is also a field of the monitor, read by its own code.
awk '/^#\[cfg\(test\)\]/ && !done {
        print "impl AwarenessMonitor {"
        print "    /// Times the boundary channels were rebuilt."
        print "    pub fn channel_epoch(&self) -> u64 {"
        print "        self.channel_epoch"
        print "    }"
        print "}"
        print ""
        done = 1
    }
    { print }' crates/awareness/src/monitor.rs >"$scratch/crates/awareness/src/monitor.rs"
# A field that is set nowhere and read nowhere.
awk '{ print } /^pub struct ChannelAudit \{/ {
        print "    /// Frames dropped as stale."
        print "    pub stale_frames: u64,"
    }' crates/core/src/loop_.rs >"$scratch/crates/core/src/loop_.rs"
# A variant that only a match arm names.
awk '{ print }
    /^    Always,$/ { print "    /// Never active."; print "    Never," }
    /Schedule::Always => true,/ { print "            Schedule::Never => false," }' \
    crates/faults/src/schedule.rs >"$scratch/crates/faults/src/schedule.rs"
# A counter that is only ever incremented, and a field that only a
# `<=` comparison reads (the guard reads no module tree, so a file
# nothing declares is enough).
cat >"$scratch/crates/core/src/plant.rs" <<'RUST'
pub struct Plant {
    pub bumped_only: u64,
    pub compared_only: u64,
}

fn plant(p: &mut Plant) -> bool {
    p.bumped_only += 1;
    p.compared_only <= 3
}
RUST
status=0
out=$(scripts/unreached_pub.sh "$scratch" 2>&1) || status=$?
for planted in channel_epoch ChannelAudit::stale_frames Schedule::Never Plant::bumped_only; do
    if [ "$status" -ne 1 ] || ! echo "$out" | grep -q "^UNREACHED: $planted "; then
        echo "$out"
        echo "self-check: the guard did not list the unreached $planted (exit $status)" >&2
        exit 1
    fi
done
if echo "$out" | grep -q "^UNREACHED: Plant::compared_only "; then
    echo "$out"
    echo "self-check: the guard listed Plant::compared_only, which a comparison reads" >&2
    exit 1
fi

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

echo "== telemetry smoke: flight recorder drains the campaign's JSONL timeline =="
cargo run -q --release --example flight_recorder

echo "== recovery smoke: micro-reboot restores and replays from the checkpoint vault =="
cargo run -q --release --example micro_reboot

echo "== awareness smoke: printer jam light (time-based comparison) =="
cargo run -q --release --example printer_awareness

echo "== non-test Rust lines (reported, not gated) =="
scripts/loc.sh

echo "verify: OK"
