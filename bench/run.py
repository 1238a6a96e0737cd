"""Benchmark for bracketlab: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload khovanov --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke            # smallest item of every workload

Run it from the root of a source checkout: the program is imported from
``src/``.  Each workload runs in fresh single-threaded processes with
PYTHONHASHSEED fixed: seven set-up probes (``setup_s`` is their median)
and one worker that warms up, repeats whole rounds of the workload's
items for ``--seconds`` and checks every output.  Timed metrics are
scaled by a reference loop measured around and during each call; see
worker.py.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named
in BENCHMARK.json with ``--trace 0``, or its per-layer metrics, from an
extra traced round, with ``--trace 1``.  The full result, with every
sample, raw seconds and reference-loop times, is also written to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170
HERE = Path(__file__).resolve().parent


def worker(root: Path, role: str, args, seconds: float = 0.0, trace: int = 0, smoke: bool = False) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{role} worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(root: Path, spec: dict, args, smoke: bool = False) -> dict:
    probes = [] if smoke else [worker(root, "setup", args) for _ in range(SETUP_PROBES)]
    result = worker(root, "run", args, args.seconds, args.trace, smoke)
    if probes:
        result["setup_probes"] = probes
        for key in ("setup_s", "setup_raw_s"):
            result[key] = statistics.median(p[key] for p in probes)
    values = result["layers"] if args.trace else result
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result["summary"] = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return result


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run the smallest item of each workload once")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "bracketlab" / "__init__.py").is_file():
        print(f"error: {root} has no src/bracketlab; run from the root of a bracketlab checkout",
              file=sys.stderr)
        return 2

    out_dir = root / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    names = workloads if args.smoke and args.workload is None else [args.workload]
    summaries = {}
    for name in names:
        args.workload = name
        result = run_workload(root, spec, args, smoke=args.smoke)
        tag = "smoke" if args.smoke else f"seed{args.seed}"
        (out_dir / f"{name}-{tag}-trace{args.trace}.json").write_text(json.dumps(result, indent=2) + "\n")
        for problem in result["problems"]:
            print(f"{name}: check failed: {problem}", file=sys.stderr)
        for error in result["errors"][:5]:
            print(f"{name}: operation failed: {error}", file=sys.stderr)
        print(f"{name}: rounds {result['rounds']}, reference_loop_s {result['reference_loop_s']:.5f}, "
              f"raw_wall_s {result['raw_wall_s']:.4f}, wall_s {result['wall_s']:.4f}, "
              f"raw setup_s {result['setup_raw_s']:.4f}, setup_s {result['setup_s']:.4f}")
        summaries[name] = result["summary"]
    if len(summaries) == 1:
        (summary,) = summaries.values()
    else:
        summary = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{n}/{k}": v for n, s in summaries.items() for k, v in s["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
