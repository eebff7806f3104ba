"""Output checks on the text the CLI prints, one function per subcommand.

Each check returns a list of failure messages (empty when the output is
correct), so a wrong answer is counted instead of aborting the run.  The
tolerances are those of the package's acceptance suite.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from workloads import Case

IDENTITY_TOL = 1e-8      # |P - h - avg|
ROW_SUM_TOL = 1e-10      # normalized operator row sums
LK_REL_TOL = 1e-8        # |lambda_lk - lambda| / lambda
FULL_SHIFT_REL_TOL = 1e-10
GAP_TOL = 1e-8           # variational gaps and the entropy infimum check


def parse_table(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Summary (key -> raw value) and rows of the ``table`` format."""
    summary: dict[str, str] = {}
    rows: list[dict[str, str]] = []
    lines = text.splitlines()
    i = 1   # line 0 is the "# symbeta <command>" title
    while i < len(lines) and lines[i].strip():
        key, _, val = lines[i].partition(" ")
        summary[key] = val.strip()
        i += 1
    if i + 1 < len(lines) and not lines[i + 1].startswith("WARNING:"):
        cols = lines[i + 1].split()
        for line in lines[i + 2:]:
            if line.startswith("WARNING:"):
                break
            rows.append(dict(zip(cols, line.split())))
    return summary, rows


def parse_csv_rows(text: str) -> list[dict[str, str]]:
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def _list(raw: str) -> list[str]:
    inner = raw.strip()[1:-1].strip()
    return [x.strip() for x in inner.split(",")] if inner else []


def _reflection_closed(words: list[str], m: int) -> bool:
    ws = set(words)
    return all("".join(str(m - int(d)) for d in w) in ws for w in ws)


def _require(summary: dict, keys: tuple[str, ...]) -> list[str]:
    missing = [k for k in keys if k not in summary]
    return [f"summary lacks {', '.join(missing)}"] if missing else []


def check_spectrum(case: Case, out: str) -> list[str]:
    s, _ = parse_table(out)
    errs = _require(s, ("lambda", "identity_residual", "row_sum_residual", "lk_vs_power"))
    if errs:
        return errs
    lam = float(s["lambda"])
    if not float(s["identity_residual"]) <= IDENTITY_TOL:
        errs.append(f"identity_residual {s['identity_residual']} > {IDENTITY_TOL}")
    if not float(s["row_sum_residual"]) <= ROW_SUM_TOL:
        errs.append(f"row_sum_residual {s['row_sum_residual']} > {ROW_SUM_TOL}")
    if not float(s["lk_vs_power"]) / lam <= LK_REL_TOL:
        errs.append(f"lk_vs_power / lambda = {float(s['lk_vs_power']) / lam:.3e} > {LK_REL_TOL}")
    ref = case.full_shift_lambda
    if ref is not None and not abs(lam - ref) <= FULL_SHIFT_REL_TOL * ref:
        errs.append(f"lambda {lam!r} != sum exp(c_a) = {ref!r}")
    return errs


def check_thermo(case: Case, out: str) -> list[str]:
    s, _ = parse_table(out)
    errs = _require(s, ("worst_gap_violation", "inf_check_min_gap"))
    if errs:
        return errs
    if not float(s["worst_gap_violation"]) <= GAP_TOL:
        errs.append(f"worst_gap_violation {s['worst_gap_violation']} > {GAP_TOL}")
    if not float(s["inf_check_min_gap"]) >= -GAP_TOL:
        errs.append(f"inf_check_min_gap {s['inf_check_min_gap']} < -{GAP_TOL}")
    return errs


def check_zerotemp(case: Case, out: str) -> list[str]:
    if case.arg("--format") == "csv":
        s, rows = {}, parse_csv_rows(out)
    else:
        s, rows = parse_table(out)
    if not rows:
        return ["no t_point rows"]
    errs = [f"t={r['t']}: identity_residual {r['identity_residual']} > {IDENTITY_TOL}"
            for r in rows if not float(r["identity_residual"]) <= IDENTITY_TOL]
    if "max_average_lower" in s and \
            not float(s["max_average_lower"]) <= float(s["max_average_upper"]):
        errs.append(f"max_average_lower {s['max_average_lower']} > "
                    f"max_average_upper {s['max_average_upper']}")
    return errs


def greedy_digits(a: Fraction, beta: Fraction, m: int, n: int) -> str:
    """Reference greedy digits in exact rational arithmetic."""
    out = []
    for _ in range(n):
        t = beta * a
        d = min(math.floor(t), m)
        out.append(str(d))
        a = t - d
    return "".join(out)


def check_expand(case: Case, out: str) -> list[str]:
    s, _ = parse_table(out)
    errs = _require(s, ("greedy", "lazy", "quasi_greedy", "unique"))
    if errs:
        return errs
    m, n = int(case.arg("--m")), int(case.arg("--depth"))
    greedy, lazy = s["greedy"], s["lazy"]
    for label, ds in (("greedy", greedy), ("lazy", lazy), ("quasi_greedy", s["quasi_greedy"])):
        if len(ds) != n or any(not c.isdigit() or int(c) > m for c in ds):
            errs.append(f"{label} is not {n} digits in 0..{m}")
    if not lazy <= greedy or not s["quasi_greedy"] <= greedy:
        errs.append("greedy is not the largest expansion")
    if (s["unique"] == "True") != (greedy == lazy):
        errs.append("unique disagrees with greedy == lazy")
    if case.exact_expand is not None:
        a, beta = case.exact_expand
        ref = greedy_digits(a, beta, m, n)
        if greedy != ref:
            k = next(i for i, (x, y) in enumerate(zip(greedy, ref)) if x != y)
            errs.append(f"greedy digit {k + 1} is {greedy[k]}, exact arithmetic gives {ref[k]}")
    return errs


def check_check(case: Case, out: str) -> list[str]:
    s, _ = parse_table(out)
    errs = _require(s, ("basis_size", "forbidden_words"))
    if errs:
        return errs
    if int(s["basis_size"]) < 1:
        errs.append("empty basis")
    if not _reflection_closed(_list(s["forbidden_words"]), int(case.arg("--m"))):
        errs.append("forbidden words not closed under reflection")
    return errs


def check_words(case: Case, out: str) -> list[str]:
    recs = [json.loads(ln) for ln in out.splitlines() if ln]
    summary = next((r for r in recs if r["record"] == "summary"), None)
    if summary is None:
        return ["no summary record"]
    words = [r["word"] for r in recs if r["record"] == "word"]
    errs = []
    if any(a >= b for a, b in zip(words, words[1:])):
        errs.append("word rows not sorted and unique")
    if len(words) != summary["count"]:
        errs.append(f"{len(words)} word rows, summary count {summary['count']}")
    if not _reflection_closed(summary["forbidden_words"], int(case.arg("--m"))):
        errs.append("forbidden words not closed under reflection")
    return errs


CHECKS = {
    "spectrum": check_spectrum, "thermo": check_thermo, "zerotemp": check_zerotemp,
    "expand": check_expand, "check": check_check, "words": check_words,
}


def check_output(case: Case, out: str) -> list[str]:
    """Failure messages for one case's stdout; empty when it is correct."""
    try:
        return CHECKS[case.command](case, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparsable output: {exc!r}"]
