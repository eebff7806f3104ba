"""One pass over a workload, in a fresh interpreter (started by run.py).

    python3 benchmark/worker.py --workload W --seed S --trace 0|1

Imports ``symbeta.cli`` (from PYTHONPATH), then drives ``main(argv)``
in-process over the workload's cases once.  Only the ``main`` calls are
timed; each output is checked afterwards.  With ``--trace 1`` the pass
runs under the tracer and also reports per-layer metrics.  Prints one
JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

from checks import check_output
from tracer import Tracer
from workloads import cases


def _clear_caches():
    # A CLI user starts every command with empty caches (lru_cache on beta_t).
    for name, mod in list(sys.modules.items()):
        if name == "symbeta" or name.startswith("symbeta."):
            for val in vars(mod).values():
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()


def run_case(case) -> tuple[float, int, str]:
    """(wall seconds of main(argv), exit code, stdout) of one case."""
    import symbeta.cli as cli
    _clear_caches()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(case.argv))
        except SystemExit as exc:      # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:              # a crash, as a CLI user would see it
            traceback.print_exc()
            rc = 1
    dt = time.perf_counter() - t0
    if rc not in case.exits:
        out.write(err.getvalue())
    return dt, rc, out.getvalue()


def one_pass(cs, trace: bool) -> dict:
    """Run and check every case once.

    ``failed`` counts crashes, exit codes outside the case's ``exits`` and
    wrong output; ``nonzero`` also counts an allowed exit 4 (the numerator
    of fail_frac).
    """
    walls, codes, errors = [], [], []
    failed = nonzero = 0
    tr = Tracer()
    with tr.installed() if trace else contextlib.nullcontext():
        for case in cs:
            dt, rc, out = run_case(case)
            walls.append(dt)
            codes.append(rc)
            if rc in case.exits:
                errs = check_output(case, out)
            else:
                errs = [f"exit {rc}: {out.strip().splitlines()[-1] if out.strip() else ''}"]
            failed += bool(errs)
            nonzero += bool(errs) or rc != 0
            errors += [f"{' '.join(case.argv)}: {e}" for e in errs]
    res = {"case_wall_s": walls, "exit_codes": codes, "attempted": len(cs),
           "failed": failed, "nonzero": nonzero, "errors": errors,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        res["per_layer"] = tr.layer_metrics(sum(walls))
    return res


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    import numpy
    import scipy
    import symbeta.cli  # noqa: F401  (import cost is setup_s, not wall_s)
    res = one_pass(cases(args.workload, args.seed), bool(args.trace))
    res["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__}
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
