#!/usr/bin/env bash
# Compare two revisions on one `perf` workload by alternating paired runs —
# the protocol of perf/README.md, "Comparing two commits".
#
#   scripts/perf-pair.sh <rev-a> <rev-b> <workload> [pairs=10]
#
# <rev-a> is the parent, <rev-b> the change; `.` names the working tree as
# it is (uncommitted edits included). Each revision is exported to its own
# directory and its `perf` built into its own CARGO_TARGET_DIR, once per
# commit (kept under target/perf-pair/ and reused). The two executables
# then run alternately — a fresh --seed per pair, the side that goes first
# alternating — with the exact arguments BENCHMARK.json's driver passes
# (`--seconds <run_seconds> --trace 0`). Printed per end-to-end metric: both
# medians with quartiles, the pairs the change won, and the rule's verdict.
# Exits non-zero if a run fails or prints `"correct": false`.
#
# Run nothing else on the machine while it works.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
rev_a=$1 rev_b=$2 workload=$3 pairs=${4:-10}

root=$(git rev-parse --show-toplevel)
work=$root/target/perf-pair
mkdir -p "$work"

# Build one side; prints the path of its executable.
build() {
    local rev=$1 src target
    if [ "$rev" = . ]; then
        src=$root target=$work/worktree-target
    else
        local sha
        sha=$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}") || {
            echo "perf-pair: unknown revision $rev" >&2
            exit 2
        }
        src=$work/$sha/src target=$work/$sha/target
        if [ ! -d "$src" ]; then
            mkdir -p "$src"
            git -C "$root" archive "$sha" | tar -x -C "$src"
        fi
    fi
    CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
        --manifest-path "$src/perf/Cargo.toml" >&2
    echo "$target/release/perf"
}

bin_a=$(build "$rev_a")
bin_b=$(build "$rev_b")
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
one() { # side executable seed
    local line
    line=$("$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -1)
    echo "$1 $3 $line" >>"$runs"
    echo "  $1 seed $3 done" >&2
}
for i in $(seq 1 "$pairs"); do
    seed=$((100 + i))
    if [ $((i % 2)) -eq 1 ]; then
        one a "$bin_a" "$seed"
        one b "$bin_b" "$seed"
    else
        one b "$bin_b" "$seed"
        one a "$bin_a" "$seed"
    fi
done

python3 - "$root/BENCHMARK.json" "$runs" "$rev_a" "$rev_b" "$workload" <<'EOF'
import json, sys

bench, runs, rev_a, rev_b, workload = sys.argv[1:6]
metrics = json.load(open(bench))["end_to_end"]
sides = {"a": {}, "b": {}}
ok = True
for line in open(runs):
    side, seed, doc = line.split(" ", 2)
    doc = json.loads(doc)
    if not doc.get("correct") or doc.get("failed"):
        print(f"side {side} seed {seed}: correct={doc.get('correct')} failed={doc.get('failed')}")
        ok = False
    sides[side][int(seed)] = {k: v["value"] for k, v in doc["metrics"].items()}

def quartiles(xs):
    xs = sorted(xs)
    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)

seeds = sorted(sides["a"])
print(f"{workload}: a = {rev_a}, b = {rev_b}, {len(seeds)} alternating pairs")
print(f"{'metric':<16} {'a median [q1, q3]':<34} {'b median [q1, q3]':<34} {'b won':<7} verdict")
for m in metrics:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    a = [sides["a"][s][name] for s in seeds]
    b = [sides["b"][s][name] for s in seeds]
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    won = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    lost = sum((y < x) if higher else (y > x) for x, y in zip(a, b))
    gain = (bm - am) if higher else (am - bm)
    rel = gain / abs(am) if am else 0.0
    spread = (a3 - a1) / abs(am) if am else 0.0
    if won * 10 >= len(seeds) * 9 and gain > (a3 - a1):
        verdict = f"gain {rel:+.1%}"
    elif rel < -bound and lost * 10 >= len(seeds) * 9:
        verdict = f"WORSE {rel:+.1%} (bound {bound:.1%})"
    elif rel < -bound or spread > bound:
        verdict = f"unresolved {rel:+.1%} (spread {spread:.1%}, bound {bound:.1%})"
    else:
        verdict = f"within bound {rel:+.1%}"
    fmt = lambda q1, md, q3: f"{md:.6g} [{q1:.6g}, {q3:.6g}]"
    print(f"{name:<16} {fmt(a1, am, a3):<34} {fmt(b1, bm, b3):<34} {won:>2}/{len(seeds):<4} {verdict}")
sys.exit(0 if ok else 1)
EOF
