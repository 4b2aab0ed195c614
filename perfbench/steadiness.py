"""Steadiness check: run workloads over several seeds, report spreads.

    python3 perfbench/steadiness.py --seconds 15 --seeds 1-10 [WORKLOAD ...]

For every workload (all by default) this runs ``run.py`` once per seed
and prints, for each end-to-end metric, the median of the per-run
values, their first and third quartiles (``statistics.quantiles(n=4)``),
the spread ``(q3 - q1) / median`` beside the metric's bound from
``BENCHMARK.json``, and the number of runs.  A metric is steady when
its spread is below a third of its bound.  The same statistics are
printed for the unscaled wall times and the host speed, which record
how much the host drifted.  The last line is the raw per-run values as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import checkout


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(checkout.ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["program runs"] = result["attempted"]
    # run.py's per-pass lines: "<name> median <value> <unit> (...)".
    for line in lines:
        for name in DRIFT:
            if line.startswith(name + " ") and " median " in line:
                values[name] = float(line.split(" median ")[1].split()[0])
    return values


DRIFT = ("run_s (wall)", "setup_s (wall)", "host speed")


def main(argv=None) -> int:
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    raw = {}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            runs.append(one_run(workload, seed, args.seconds))
            print(f"{time.strftime('%H:%M:%S')} {workload} seed {seed}: "
                  f"run_s {runs[-1]['run_s']:.4f}", file=sys.stderr,
                  flush=True)
        raw[workload] = runs
        print(f"\n{workload} ({len(runs)} runs, seeds {args.seeds}, "
              f"{args.seconds:g} s each)")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s} {'bound':>6s}")
        rows = list(bounds.items()) + [(name, None) for name in DRIFT]
        for name, bound in rows:
            values = [run[name] for run in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            if bound is None:
                flag, bound_text = "", "-"
            else:
                flag = "" if spread < bound / 3 else "  UNSTEADY"
                bound_text = f"{bound:6.3g}"
            print(f"  {name:24s} {median:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:8.4f} {bound_text:>6s}{flag}")
        counts = [run["program runs"] for run in runs]
        print(f"  program runs per run (programs x passes): "
              f"{min(counts)}-{max(counts)}")
    print(json.dumps(raw))
    return 0


if __name__ == "__main__":
    sys.exit(main())
