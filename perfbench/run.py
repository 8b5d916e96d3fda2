"""su31cert benchmark: fixed-work workloads, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload certify_L7 --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 0   # every workload in turn

Run it from the repository root.  A run does whole rounds of the same
operations on fixed inputs; ``--seconds`` sets how many rounds (README) and
``--seed`` only the order of the operations within each round.  With ``--trace 0`` the last line holds the end-to-end
metrics; with ``--trace 1`` a traced pass gives the per-layer metrics.  The
metric names come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

import tracing  # noqa: E402  (standard library only; the program is imported in set-up)

WORKLOAD_NAMES = ["certify_L7", "reject_L8", "spectral_L5", "cli_L4"]
SETUP_REPEATS = 5  # set-ups per run: this process plus four fresh ones; setup_s is their median
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile


def load_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def setup(name: str, seed: int, seconds: float):
    """Import the program, build the inputs and finish one warm-up operation."""
    t0 = perf_counter()
    import workloads

    cls = workloads.WORKLOADS[name]
    wl = cls(seed, cls.rounds_for(seconds))
    wl.run(wl.round[0])
    return wl, perf_counter() - t0


def fresh_setup_seconds(args) -> float:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(wl, tracer=None):
    """One closed-loop pass: each operation starts when the previous one returns."""
    times, outputs, failures = [], [], []
    t_start = perf_counter()
    for index, item in enumerate(wl.items):
        t0 = perf_counter()
        try:
            if tracer is None:
                out = wl.run(item)
            else:
                tracer.op = index
                with tracer.span("op"):
                    out = wl.run(item)
        except Exception as exc:  # a failed operation is counted and reported, not fatal
            failures.append(f"op {index}: {type(exc).__name__}: {exc}")
            continue
        times.append(perf_counter() - t0)
        outputs.append((item, out))
    return times, outputs, failures, perf_counter() - t_start


def end_to_end(wl, times, wall, setups) -> dict:
    if wl.name == "cli_L4":
        rss_kb = wl.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(times) / wall,
        "op_p50_ms": 1e3 * statistics.median(times),
        "words_per_s": wl.words_per_op * len(times) / sum(times),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(wl, names, stats, n_ops, overhead_ms) -> dict:
    """Per-operation layer figures from the traced pass; 0 for a layer not reached."""

    def get(layer, key):
        return stats.get(layer, {}).get(key, 0)

    fields = {"calls": "calls", "words": "items", "ms": "ms", "self_ms": "self_ms", "failed": "failed"}
    words = get("tracefield.enumerate_words", "items") / n_ops
    special = {
        "tracefield.tree_passes": words / wl.words_per_op,
        "cli.startup_ms": getattr(wl, "startup_ms", 0.0) / n_ops,
        "corpus.make_corpus.ms": get("corpus.make_corpus", "ms"),  # per set-up
        "trace.overhead_ms": overhead_ms,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        else:
            layer, key = name.rsplit(".", 1)
            out[name] = get(layer, fields[key]) / n_ops
    return out


def run_workload(args, spec) -> dict:
    tracer = tracing.Tracer()
    if args.trace:
        with tracing.installed(tracer, tracing.SETUP_TARGETS):
            wl, _ = setup(args.workload, args.seed, args.seconds)
        setups = []
    else:
        wl, own = setup(args.workload, args.seed, args.seconds)
        setups = [own] + [fresh_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]

    times, outputs, failures, wall = measure(wl)
    if args.trace:
        plain_s = sum(times)
        wl.tracer = tracer
        with tracing.installed(tracer, tracing.CORE_TARGETS):
            times, outputs, failures, wall = measure(wl, tracer)
        wl.tracer = None
        overhead_ms = 1e3 * (sum(times) - plain_s) / max(1, len(times))

    problems = wl.problems(outputs)
    attempted = len(wl.items)
    for line in failures[:5] + problems[:20]:
        print(f"[{args.workload}] {line}", file=sys.stderr)

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer(wl, names, tracer.stats, attempted, overhead_ms)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = end_to_end(wl, times, wall, setups)
        metrics = {name: values[name] for name in names}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    print(f"workload {args.workload}  seed {args.seed}  rounds {wl.rounds}  trace {args.trace}")
    print(f"  attempted {attempted}  failed {len(failures)}  check problems {len(problems)}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  op latency samples {len(times)}; setup_s median of set-ups " + " ".join(f"{s:.3f}" for s in setups))
        if len(times) >= P90_MIN_SAMPLES:
            p90 = 1e3 * statistics.quantiles(times, n=10)[-1]
            print(f"  {'op_p90_ms':42s} {p90:14.6g} ms")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        trace = {"stats": tracer.stats, "spans": tracer.spans, "span_fields": [
            "layer", "start_s", "end_s", "parent_span", "op"]}
        (out_dir / f"spans_{stem}.json").write_text(json.dumps(trace) + "\n")
    return result


def run_all(args):
    """Each workload in its own process, one after another; one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=REPO, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    return summary


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        _, seconds = setup(args.workload, args.seed, args.seconds)
        print(json.dumps({"setup_s": seconds}))
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
