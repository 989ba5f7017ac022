#!/usr/bin/env bash
# Build the benchmark harness offline and run it. See README.md.
#
#   benchmark/run.sh [--seed N] [--quick] [--check-repeat]     every workload, every metric
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
#   benchmark/run.sh --test                                    the harness's own tests
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$here")"
engine="$here/target/engine"
crates=(types index broker cluster core)

# The engine is built from a copy of the repository's crates, so that the
# one line `bistream-broker` needs in order to compile (`Clock: Debug`,
# see README.md "Build") can be applied without editing the repository.
# Only files whose content changed are rewritten, so cargo rebuilds only
# what changed.
sync_file() { # <source> <destination>
    cmp -s "$1" "$2" && return 0
    mkdir -p "$(dirname "$2")"
    cp "$1" "$2"
}

sync_engine() {
    local c f tmp
    for c in "${crates[@]}"; do
        [ -f "$repo/crates/$c/Cargo.toml" ] || {
            echo "benchmark: $repo/crates/$c is missing; run from a checkout of the repository" >&2
            return 1
        }
    done
    mkdir -p "$engine/crates"
    tmp="$(mktemp "$here/target/sync.XXXXXX")"
    # The copy's workspace root: the repository manifest's `[workspace*]`
    # tables (what the crates inherit from), without its root package.
    awk '/^\[/ { keep = ($0 ~ /^\[workspace/) } keep' "$repo/Cargo.toml" >"$tmp"
    sync_file "$tmp" "$engine/Cargo.toml"
    for c in "${crates[@]}"; do
        while IFS= read -r -d '' f; do
            rel="${f#"$repo/"}"
            if [ "$rel" = crates/types/src/time.rs ]; then
                sed 's/^pub trait Clock: Send + Sync {$/pub trait Clock: Send + Sync + std::fmt::Debug {/' "$f" >"$tmp"
                sync_file "$tmp" "$engine/$rel"
            else
                sync_file "$f" "$engine/$rel"
            fi
        done < <(find "$repo/crates/$c" \( -name target -o -name tests -o -name benches \) -prune \
                     -o -type f \( -name '*.rs' -o -name Cargo.toml \) -print0)
        # Drop copies of files the repository no longer has.
        while IFS= read -r -d '' f; do
            [ -e "$repo/${f#"$engine/"}" ] || rm -f "$f"
        done < <(find "$engine/crates/$c" -type f -print0)
    done
    rm -f "$tmp"
}

sync_engine
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
manifest="$here/Cargo.toml"

if [ "${1:-}" = "--test" ]; then
    shift
    exec cargo test --release --offline --manifest-path "$manifest" "$@"
fi

# Compiler chatter goes to a log; it is shown only when the build fails.
log="$here/target/build.log"
cargo build --release --offline --manifest-path "$manifest" >"$log" 2>&1 || {
    cat "$log" >&2
    exit 1
}
# Run from the repository root: the harness writes benchmark/out/ there.
cd "$repo"
exec "$CARGO_TARGET_DIR/release/bistream-benchmark" "$@"
