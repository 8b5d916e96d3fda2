"""Run the benchmark repeatedly and print each end-to-end metric's spread against its bound.

    python3 perfbench/steady.py --workload spectral_L5 --runs 10 --first-seed 100
    python3 perfbench/steady.py --workload spectral_L5 --runs 10 --first-seed 200 \
        --against perfbench/results/steady_spectral_L5_seed100.json

Each run uses its own seed, which only orders the operations of each round, so
every run does the same work and the spread is the machine's.  The spread is the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median; a metric
is steady when its spread is below a third of its bound (setup_s is shown but
not held to that).  With --against, each median is also compared with an
earlier set: it may be worse by at most the bound.  The share of failed
operations must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def main() -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--against", help="an earlier steady_*.json to compare medians with")
    args = parser.parse_args()

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=REPO, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    earlier = json.loads(Path(args.against).read_text())["medians"] if args.against else {}
    medians, ok = {}, True
    print(f"{'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        medians[name] = median
        spread = (q3 - q1) / median
        verdict = "steady" if spread < bound / 3 else "WIDE"
        if name == "setup_s":
            verdict += " (not gated)"
        else:
            ok &= spread < bound / 3
        if name in earlier:
            change = (median - earlier[name]) / earlier[name]
            worse = -change if metric["better"] == "higher" else change
            verdict += f"; {change:+.2%} against earlier" + (" WORSE" if worse > bound else "")
            ok &= worse <= bound
        print(f"{name:14s} {median:12.6g} {spread:8.2%} {bound:6.2f}  {verdict}")

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {sorted(shares)}" + ("" if len(shares) == 1 else "  DIFFERS"))
    ok &= len(shares) == 1 and all(r["correct"] for r in results)
    out = HERE / "results" / f"steady_{args.workload}_seed{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": results, "medians": medians}, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
