#!/usr/bin/env bash
# Full local CI gate. Everything here must pass on a machine with no
# network access — the workspace has no registry dependencies.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# No test or bench is behind a cargo feature, so `--all-targets` lints
# every test and benchmark binary.
echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> offline guard: the workspace must build with no network"
cargo build --offline --workspace

echo "==> tier-1 verify: release build + tests"
cargo build --release
cargo test -q

echo "==> full workspace tests"
cargo test -q --workspace

# perfbench is a Cargo workspace of its own, so the steps above never
# build it: a core API change that breaks the benchmark fails here.
echo "==> perfbench tests"
cargo test --offline --release --manifest-path perfbench/Cargo.toml

# Time-bounded seeded fuzz over the release binary: same fixed seed every
# run, so a red stage is reproducible with
#   target/release/testkit-fuzz --seed 0x7716.. --cases N
# Scale with FUZZ_CASES (0 skips the stage); shrunk reproductions of any
# failure land in tests/corpus/ ready to commit.
FUZZ_CASES="${FUZZ_CASES:-2000}"
cargo build --release -p twigm-testkit
if [ "$FUZZ_CASES" -gt 0 ]; then
    echo "==> fuzz smoke: $FUZZ_CASES seeded cases (FUZZ_CASES to scale)"
    target/release/testkit-fuzz --seed 0x77163E57 --cases "$FUZZ_CASES" \
        --corpus-dir tests/corpus
fi

echo "==> corpus replay: shrunk past failures stay fixed"
target/release/testkit-fuzz --replay tests/corpus

# Filtering smoke (E10): MultiTwigM's shared dispatch over 1..256
# standing queries must return exactly the results of as many separate
# TwigM engines (the binary asserts it at every N) — the one check of
# many-query MultiTwigM on real Book data.
echo "==> filtering smoke: shared dispatch agrees with separate engines"
cargo build --release -p twigm-bench
target/release/ablation_filtering --scale 0.05

# DFA blow-up smoke (E9): for every wildcard query the lazy DFA must
# return exactly TwigM's ids (the binary asserts it before printing).
echo "==> E9 smoke: lazy DFA agrees with TwigM on wildcard chains"
target/release/ablation_dfa_blowup --scale 0.05 --repeats 1

# Observability smoke: drive the CLI with every telemetry flag on a
# Figure-2-style query, then schema-check the artifacts with the
# testkit validators, and hold the observer layer to its zero-cost
# claim (traced NoopObserver driver within 2% of the plain hot path,
# the median ratio of 720 adjacent plain/traced pairs over the bench
# query corpus). Scale the
# bench with OBS_SMOKE_SCALE; set OBS_SMOKE=0 to skip the stage.
OBS_SMOKE="${OBS_SMOKE:-1}"
if [ "$OBS_SMOKE" != 0 ]; then
    echo "==> obs smoke: stats/trace schemas + observer ablation gate"
    cargo build --release -p twigm-cli -p twigm-bench
    obs_tmp="$(mktemp -d)"
    trap 'rm -rf "$obs_tmp"' EXIT
    printf '<r><a><a><b/><c/></a><c/></a><a/></r>' > "$obs_tmp/doc.xml"
    target/release/twigm --stats=json --progress \
        --trace "$obs_tmp/trace.json" -c '//a[b]//c' "$obs_tmp/doc.xml" \
        > "$obs_tmp/out.txt" 2> "$obs_tmp/stats.json"
    grep -q '^1$' "$obs_tmp/out.txt"
    target/release/twigm --trace "$obs_tmp/trace.jsonl" '//a[b]//c' \
        "$obs_tmp/doc.xml" > /dev/null
    target/release/testkit-fuzz --validate-stats "$obs_tmp/stats.json"
    target/release/testkit-fuzz --validate-trace "$obs_tmp/trace.json"
    target/release/testkit-fuzz --validate-trace "$obs_tmp/trace.jsonl"
    OBS_ABLATION_GATE=2 target/release/ablation_observer \
        --scale "${OBS_SMOKE_SCALE:-0.05}" --repeats 9
fi

# Projection smoke: on a seeded Protein document (the Figure-5
# generator, seed 42), Protein Q1's child path lets the reader skim the
# subtrees no query node can reach. The skimmed run must print the DOM
# oracle's ids and report skimmed events in a valid stats report, and a
# `//`-rooted query, which compiles to no projection, must skim none.
echo "==> projection smoke: skimmed Q1 agrees with the DOM oracle"
cargo build --release -p twigm-cli -p twigm-bench -p twigm-testkit
target/release/fig5_datasets --scale 0.005 > /dev/null
protein=target/twigm-datasets/protein-393216.xml
q1=/ProteinDatabase/ProteinEntry/protein/name
proj_tmp="$(mktemp -d)"
target/release/twigm --stats=json "$q1" "$protein" \
    > "$proj_tmp/ids.txt" 2> "$proj_tmp/stats.json"
target/release/twigm --engine dom "$q1" "$protein" > "$proj_tmp/dom.txt"
cmp "$proj_tmp/ids.txt" "$proj_tmp/dom.txt"
target/release/testkit-fuzz --validate-stats "$proj_tmp/stats.json"
grep -Eq '"skipped_events":[1-9]' "$proj_tmp/stats.json"
target/release/twigm --stats=json -c //ProteinEntry/protein/name "$protein" \
    > /dev/null 2> "$proj_tmp/rooted_desc.json"
grep -q '"skipped_events":0,' "$proj_tmp/rooted_desc.json"
rm -rf "$proj_tmp"

# Scanner smoke: the SWAR/SSE2 scan paths must agree with the scalar
# reference on real Figure-5 data (the ablation asserts this before
# timing) and hold their perf claim (text+terminator microbench >= 2x,
# measurable e2e win on at least one dataset, min-of-repeats). Scale
# with SCAN_SMOKE_SCALE; set SCAN_SMOKE=0 to skip the stage.
SCAN_SMOKE="${SCAN_SMOKE:-1}"
if [ "$SCAN_SMOKE" != 0 ]; then
    echo "==> scan smoke: scalar-vs-SWAR differential + ablation gate"
    cargo build --release -p twigm-bench
    SCAN_ABLATION_GATE=2 target/release/ablation_scanner \
        --scale "${SCAN_SMOKE_SCALE:-0.05}" --repeats 7 \
        --json target/BENCH_scanner.json
fi

# Pipeline smoke: the batched producer/consumer driver, the prefilter,
# and the sharded union must reproduce the serial results exactly on
# real Figure-5 data (the ablation asserts this before timing), and on
# a multi-core host the best pipelined/sharded configuration must show
# a real e2e win. The JSON stays under target/, so CI never rewrites
# the committed BENCH_pipeline.json snapshot; the default scale matches
# that snapshot's run (0.25, same as the figures). Scale with
# PIPE_SMOKE_SCALE; set PIPE_SMOKE=0 to skip the stage.
PIPE_SMOKE="${PIPE_SMOKE:-1}"
if [ "$PIPE_SMOKE" != 0 ]; then
    echo "==> pipeline smoke: serial-vs-pipelined differential + ablation gate"
    cargo build --release -p twigm-bench
    PIPELINE_ABLATION_GATE=1.3 target/release/ablation_pipeline \
        --scale "${PIPE_SMOKE_SCALE:-0.25}" --repeats 5 \
        --json target/BENCH_pipeline.json
fi

echo "CI green."
