#!/usr/bin/env bash
# Layout-stable A/B run of the benchmark (perfbench/) between two
# revisions.
#
# Usage: scripts/ab_perfbench.sh <parent-rev> <workload> [pairs]
#
# The two-thread `auction-union-2t` workload moves 10-20% with code
# layout alone, and the checkout path is compiled into the binary. So
# this script:
#   * exports <parent-rev> and the change (AB_CHANGE, default HEAD) with
#     `git archive` into two checkout directories whose paths have the
#     same length (`$AB_DIR/parent` and `$AB_DIR/change`). Archives, not
#     worktrees: they leave nothing registered in the repository;
#   * builds each side's benchmark binary with every function aligned to
#     64 bytes and every branch target to 32
#     (-C llvm-args=-align-all-functions=6
#      -C llvm-args=-align-all-nofallthru-blocks=5);
#   * runs `pairs` (default 10) pairs of `--trace 0` runs, alternating
#     which side goes first, pair i under seed AB_SEED + i;
#   * prints, for every end-to-end metric BENCHMARK.json declares, each
#     side's median and quartiles, the median change/parent ratio over
#     the pairs and how many pairs the change won.
#
# The benchmark binary runs as it is; nothing under perfbench/ is edited.
#
# Environment:
#   AB_CHANGE   revision of the change side (default HEAD)
#   AB_SECONDS  seconds per run (default 6)
#   AB_SEED     seed of the first pair (default 1)
#   AB_DIR      where the checkouts, builds and run logs go
#               (default ${TMPDIR:-/tmp}/twigm-ab); kept for reuse
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <parent-rev> <workload> [pairs]" >&2
    exit 2
fi
parent_rev="$1"
workload="$2"
pairs="${3:-10}"
change_rev="${AB_CHANGE:-HEAD}"
seconds="${AB_SECONDS:-6}"
seed0="${AB_SEED:-1}"
ab_dir="${AB_DIR:-${TMPDIR:-/tmp}/twigm-ab}"
repo="$(cd "$(dirname "$0")/.." && pwd)"

export RUSTFLAGS="-C llvm-args=-align-all-functions=6 -C llvm-args=-align-all-nofallthru-blocks=5"

# Exports `rev` into `$ab_dir/<side>` and builds its benchmark there.
# Prints the binary's path.
checkout_and_build() {
    local side="$1" rev="$2" dir="$ab_dir/$1"
    local sha
    sha="$(git -C "$repo" rev-parse --verify "$rev^{commit}")"
    if [ "$(cat "$dir/.ab_rev" 2>/dev/null)" != "$sha" ]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git -C "$repo" archive "$sha" | tar -x -C "$dir"
        echo "$sha" > "$dir/.ab_rev"
    fi
    echo "==> building $side ($rev = ${sha:0:10})" >&2
    CARGO_TARGET_DIR="$dir/perfbench/target" cargo build --release --offline --quiet \
        --manifest-path "$dir/perfbench/Cargo.toml" >&2
    echo "$dir/perfbench/target/release/twigm-perfbench"
}

mkdir -p "$ab_dir"
parent_bin="$(checkout_and_build parent "$parent_rev")"
change_bin="$(checkout_and_build change "$change_rev")"

log="$ab_dir/$workload.jsonl"
: > "$log"
# One run: appends {"side", "pair", "result"} to the log.
run() {
    local side="$1" bin="$2" pair="$3" seed="$4" last
    last="$(cd "$ab_dir/$side" && "$bin" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1)"
    printf '{"side":"%s","pair":%d,"result":%s}\n' "$side" "$pair" "$last" >> "$log"
}
for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    echo "==> pair $((i + 1))/$pairs (seed $seed)" >&2
    if ((i % 2 == 0)); then
        run parent "$parent_bin" "$i" "$seed"
        run change "$change_bin" "$i" "$seed"
    else
        run change "$change_bin" "$i" "$seed"
        run parent "$parent_bin" "$i" "$seed"
    fi
done

python3 - "$repo/BENCHMARK.json" "$log" "$workload" <<'EOF'
import json
import statistics
import sys

bench, log, workload = sys.argv[1:]
metrics = json.load(open(bench))["end_to_end"]
runs = {"parent": {}, "change": {}}
for line in open(log):
    rec = json.loads(line)
    result = rec["result"]
    if not result.get("correct", False) or result.get("failed", 0):
        sys.exit(f"{rec['side']} pair {rec['pair']}: incorrect or failed run: {result}")
    runs[rec["side"]][rec["pair"]] = result["metrics"]
pairs = sorted(runs["parent"].keys() & runs["change"].keys())


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"{workload}: {len(pairs)} alternating pairs, change/parent")
print(f"{'metric':<18} {'parent median [q1-q3]':>26} {'change median [q1-q3]':>26} "
      f"{'ratio':>7} {'wins':>6}")
for m in metrics:
    name = m["name"]
    values = {
        side: [runs[side][p][name]["value"] for p in pairs if name in runs[side][p]]
        for side in runs
    }
    if not values["parent"] or len(values["parent"]) != len(values["change"]):
        print(f"{name:<18} (not reported)")
        continue
    ratios = [c / p for p, c in zip(values["parent"], values["change"]) if p]
    higher = m["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
    cells = []
    for side in ("parent", "change"):
        q1, q2, q3 = quartiles(sorted(values[side]))
        cells.append(f"{q2:.4g} [{q1:.4g}-{q3:.4g}]")
    ratio = statistics.median(ratios) if ratios else float("nan")
    print(f"{name:<18} {cells[0]:>26} {cells[1]:>26} {ratio:>7.3f} {wins:>3}/{len(pairs)}")
EOF
