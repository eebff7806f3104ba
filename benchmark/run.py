"""Benchmark entry point.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` (nothing is installed).  The run

1. times ``SETUP_SAMPLES`` cold imports of ``symbeta.cli``, each in a fresh
   interpreter, after one untimed import that writes the bytecode cache
   (``setup_s`` is their median);
2. runs passes over the workload, each in a fresh interpreter
   (``worker.py``) as a CLI user's process would be: at least
   ``MIN_PASSES``, then another only if the run, set-up included, is
   expected to end within S seconds.  With ``--trace 1`` a round is one
   untraced and one traced pass (at least one round);
3. prints, as the last stdout line, ``{"correct", "attempted", "failed",
   "metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
   metrics with ``--trace 1``.  The line before it holds the details
   (fail_frac, exit codes per case, pass times, versions, nproc).

Every child runs alone, with BLAS and OpenMP pinned to one thread.  Exits
2 without a result when the checkout has no ``src/symbeta``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120

_IMPORT = ("import time; t0 = time.perf_counter(); import symbeta.cli; "
           "print(repr(time.perf_counter() - t0))")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Import from bytecode, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _child(args: list[str], env: dict[str, str]) -> str:
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(env: dict[str, str]) -> tuple[float, list[float]]:
    _child(["-c", _IMPORT], env)
    samples = [float(_child(["-c", _IMPORT], env)) for _ in range(SETUP_SAMPLES)]
    return statistics.median(samples), samples


def run_passes(workload: str, seed: int, deadline: float, trace: bool,
               env: dict[str, str]) -> tuple[list[dict], list[dict]]:
    """(untraced passes, traced passes), each pass in its own worker.

    ``deadline`` is a ``time.perf_counter()`` value; no round starts that
    is expected to end after it, except the first ``MIN_PASSES``.
    """
    def one(t: int) -> dict:
        return json.loads(_child([str(HERE / "worker.py"), "--workload", workload,
                                  "--seed", str(seed), "--trace", str(t)], env))

    untraced: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    while len(rounds) < (1 if trace else MIN_PASSES) or \
            time.perf_counter() + statistics.median(rounds) <= deadline:
        t0 = time.perf_counter()
        untraced.append(one(0))
        if trace:
            traced.append(one(1))
        rounds.append(time.perf_counter() - t0)
    return untraced, traced


def aggregate(untraced: list[dict], traced: list[dict]) -> dict:
    """Run-level results from the passes' results."""
    passes = untraced + traced
    walls = [sum(p["case_wall_s"]) for p in untraced]
    attempted = sum(p["attempted"] for p in passes)
    res = {
        "passes": len(untraced),
        "pass_wall_s": walls,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in untraced),
        "attempted": attempted,
        "failed": sum(p["failed"] for p in passes),
        "fail_frac": sum(p["nonzero"] for p in passes) / attempted,
        "exit_codes": untraced[0]["exit_codes"],
        "errors": [e for p in passes for e in p["errors"]][:20],
        "env": untraced[0].get("env"),
    }
    if traced:
        layers = [p["per_layer"] for p in traced]
        per_layer = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        per_layer["trace_overhead_s"] = \
            statistics.median(sum(p["case_wall_s"]) for p in traced) - res["wall_s"]
        per_layer["fail_frac"] = res["fail_frac"]
        res["per_layer"] = per_layer
    return res


def result_line(res: dict, trace: bool) -> dict:
    """The result object of the last stdout line; pops the per-layer metrics off ``res``."""
    per_layer = res.pop("per_layer", None)
    if trace:
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in LAYER_METRICS.items()}
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="symbeta CLI benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "symbeta" / "cli.py").is_file():
        print(f"no symbeta sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + args.seconds
    env = child_env()
    try:
        setup_s, setup_samples = setup_seconds(env)
        res = aggregate(*run_passes(args.workload, args.seed, deadline,
                                    bool(args.trace), env))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    res.update(workload=args.workload, seed=args.seed,
               setup_s=setup_s, setup_samples=setup_samples)
    res["env"]["nproc"] = len(os.sched_getaffinity(0))
    line = result_line(res, bool(args.trace))
    print(json.dumps(res))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
