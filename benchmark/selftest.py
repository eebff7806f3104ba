"""Self-test of the benchmark at toy sizes (seconds, not minutes).

    python3 benchmark/selftest.py

Runs every workload's seed-0 cases with small depths through the same
pass, check, trace and result-line code as run.py, then requires that

- every toy case passes its output checks;
- every metric named in BENCHMARK.json is emitted with its unit, with
  tracing off (end-to-end) and on (per-layer), and no other metric is;
- a deliberately wrong reference value is counted in ``failed`` and in
  fail_frac;
- an exit 4 on a case that expects exit 0 is counted in ``failed``.

Exits 1 and lists the failures if any requirement does not hold.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, Case, cases  # noqa: E402
from worker import one_pass  # noqa: E402

failures: list[str] = []


def expect(ok: bool, msg: str):
    if not ok:
        failures.append(msg)


def toy(case: Case) -> Case:
    """The case at small depth; expand keeps a deep enough kneading depth."""
    argv = list(case.argv)
    depth = 40 if case.command == "expand" else 4
    i = argv.index("--depth")
    argv[i + 1] = str(min(int(argv[i + 1]), depth))
    if case.command == "expand":
        argv[argv.index("--kneading-depth") + 1] = str(depth + 2)
    return dataclasses.replace(case, argv=tuple(argv))


def check_metrics(line: dict, declared: list[dict], label: str):
    emitted = {k: v["unit"] for k, v in line["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    expect(emitted == wanted, f"{label}: emitted {sorted(emitted.items() - wanted.items())}, "
                              f"missing {sorted(wanted.items() - emitted.items())}")
    for k, v in line["metrics"].items():
        val = v["value"]
        expect(isinstance(val, (int, float)) and math.isfinite(val),
               f"{label}: {k} = {val!r} is not a finite number")


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    setup_s, _ = run.setup_seconds(run.child_env())
    for w in WORKLOADS:
        cs = [toy(c) for c in cases(w, 0)]
        for trace in (False, True):
            passes = [one_pass(cs, False)]
            res = run.aggregate(passes, [one_pass(cs, True)] if trace else [])
            res["setup_s"] = setup_s
            label = f"{w} trace={int(trace)}"
            expect(res["failed"] == 0, f"{label}: toy cases failed checks: {res['errors']}")
            line = run.result_line(res, trace)
            check_metrics(line, spec["per_layer" if trace else "end_to_end"], label)
            expect(set(line) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(line)}")
        print(f"{w}: ok ({len(cs)} toy cases, exit codes {res['exit_codes']})")

    spectrum = toy(cases("spectrum-deep", 0)[0])
    wrong = dataclasses.replace(spectrum, full_shift_lambda=spectrum.full_shift_lambda * 1.001)
    res = run.aggregate([one_pass([spectrum, wrong], False)], [])
    expect(res["failed"] == 1 and res["fail_frac"] == 0.5,
           f"wrong reference lambda: failed={res['failed']}, fail_frac={res['fail_frac']}, "
           "expected 1 and 0.5")
    print(f"wrong reference: failed {res['failed']} of {res['attempted']}: {res['errors']}")

    # The toy zerotemp case exits 4; a case that allows only 0 must count it.
    zerotemp = toy(cases("zerotemp-scan", 0)[1])
    strict = dataclasses.replace(zerotemp, exits=(0,))
    res = run.aggregate([one_pass([zerotemp, strict], False)], [])
    expect(res["exit_codes"] == [4, 4] and res["failed"] == 1 and res["fail_frac"] == 1.0,
           f"exit 4 where 0 is expected: exit codes {res['exit_codes']}, "
           f"failed={res['failed']}, fail_frac={res['fail_frac']}, expected [4, 4], 1 and 1.0")
    print(f"unexpected exit 4: failed {res['failed']} of {res['attempted']}: {res['errors']}")

    for f in failures:
        print(f"FAIL: {f}")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
