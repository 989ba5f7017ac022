#!/usr/bin/env bash
# Run the engine crates' own tests with the network unplugged.
#
#   scripts/offline-test.sh [cargo test arguments...]
#
# The workspace cannot resolve its registry dependencies offline, so this
# builds a scratch workspace of the five engine crates over the in-tree
# stand-ins `benchmark/run.sh` also builds against (`benchmark/shims`):
#
#   - copies crates/{types,index,broker,cluster,core} and benchmark/shims;
#   - drops the dev-dependencies no stand-in exists for (proptest,
#     serde_json, criterion, bistream-workload) and the integration tests
#     under `tests/` that use them — `src/` is copied untouched;
#   - runs `cargo test --offline` over what is left: every unit test, the
#     remaining integration tests and the doc tests.
#
# Exit code 0 means every test passed; there is no expected-failure list.
# The scratch workspace lives in $OFFLINE_TEST_DIR (default: a fresh temp
# directory, removed afterwards); pass a fixed directory to reuse its
# `target/` between runs.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
crates=(types index broker cluster core)
registry_only='proptest|serde_json|criterion|bistream[-_]workload'

if [ -n "${OFFLINE_TEST_DIR:-}" ]; then
    work="$OFFLINE_TEST_DIR"
    mkdir -p "$work"
else
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
fi

rm -rf "$work/crates" "$work/shims"
mkdir -p "$work/crates"
cp -rp "$repo/benchmark/shims" "$work/shims"
for c in "${crates[@]}"; do
    cp -rp "$repo/crates/$c" "$work/crates/$c"
    rm -rf "$work/crates/$c/target" "$work/crates/$c/benches"
    sed -i -E "/^($registry_only)\.workspace/d" "$work/crates/$c/Cargo.toml"
    if [ -d "$work/crates/$c/tests" ]; then
        { grep -lE "$registry_only" "$work/crates/$c/tests"/*.rs || true; } | xargs -r rm -f
    fi
done

# Workspace root: the repository manifest's `[workspace*]` tables (what the
# crates inherit from) plus the stand-ins, as in benchmark/Cargo.toml.
{
    awk '/^\[/ { keep = ($0 ~ /^\[workspace/) } keep' "$repo/Cargo.toml"
    cat <<'EOF'

[patch.crates-io]
rand = { path = "shims/rand" }
crossbeam = { path = "shims/crossbeam" }
parking_lot = { path = "shims/parking_lot" }
bytes = { path = "shims/bytes" }
serde = { path = "shims/serde" }
EOF
} >"$work/Cargo.toml"

cd "$work"
pkgs=()
for c in "${crates[@]}"; do pkgs+=(-p "bistream-$c"); done
cargo test --offline "${pkgs[@]}" "$@"
