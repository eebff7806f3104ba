"""Steadiness report: every metric on every workload in one command.

    python3 benchmark/report.py [--runs 10]

Runs ``run.py`` ``--runs`` times per workload (seeds 1, 2, ...) for
``run_seconds`` of BENCHMARK.json with tracing off, then once with
tracing on (seed 1).  For each
end-to-end metric and for fail_frac it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the sample count and the
quartile spread as a share of the median, and flags (``!!``) a spread
above the metric's bound in BENCHMARK.json.  Then it prints the per-layer
metrics of the traced run.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(details, result line) of one run.py run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float | None]:
    """(median, q1, q3, spread); spread is (q3 - q1) / median, None at median 0."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for w in WORKLOADS:
        rows: dict[str, tuple[str, list[float]]] = {}
        for seed in range(1, args.runs + 1):
            details, line = run_once(w, seed, seconds, 0)
            for k, v in line["metrics"].items():
                rows.setdefault(k, (v["unit"], []))[1].append(v["value"])
            rows.setdefault("fail_frac", ("ratio", []))[1].append(details["fail_frac"])
            if not line["correct"]:
                print(f"# {w} seed {seed}: failed checks: {details['errors']}")
        env = details["env"]
        print(f"\n## {w}   (python {env['python']}, numpy {env['numpy']}, "
              f"scipy {env['scipy']}, nproc {env['nproc']}, {seconds:g} s per run)")
        print(f"{'metric':14s} {'unit':6s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'n':>3s} {'spread':>7s} {'bound':>6s}")
        for k, (unit, vals) in rows.items():
            med, q1, q3, spread = summarize(vals)
            bound = bounds.get(k)
            over = bound is not None and (spread is None or spread > bound)
            flagged += over
            print(f"{k:14s} {unit:6s} {med:11.5g} {q1:11.5g} {q3:11.5g} {len(vals):3d} "
                  f"{'-' if spread is None else f'{spread:7.3f}':>7s} "
                  f"{'' if bound is None else f'{bound:6.2f}'}{'  !!' if over else ''}")
        _, line = run_once(w, 1, seconds, 1)
        print("per-layer (traced run, seed 1; zero entries omitted):")
        for k, v in line["metrics"].items():
            if v["value"]:
                print(f"  {k:42s} {v['value']:12.6g} {v['unit']}")
    print(f"\n{flagged} metric/workload pair(s) over their bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
