"""Batch run configuration, report assembly and output rendering.

Reports render to a human table, line-delimited JSON records (one object
per row) or CSV for curves.  Output is deterministic: identical config and
version produce byte-identical bytes (sorted keys, repr floats, no
timestamps).

A report carries its rows as columns: each renderer turns a column into
its cell strings in one pass and joins the lines, with no object per row.
A word column is the (N, n) uint8 digit matrix of the words.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .expansion import (Params, _check_range, as_real, beta_t, greedy_expansion,
                        lazy_expansion, quasi_greedy)
from .operator import (LINEAR_LIMIT, RegimeError, TransferSystem, _in_degree,
                       _word_graph, build_system, lk_solve)
from .potentials import parse_potential
from .sequences import PeriodicSeq
from .shift import (Kneading, build_kneading, check_transitivity,
                    digit_interval, digit_interval_integers, enumerate_words,
                    forbidden_words)
from .thermo import (entropy_inf_check, gibbs_measure, max_ergodic_average,
                     random_markov_measure, variational_gap,
                     zero_temperature_scan, DEFAULT_T_GRID)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    m: int = 3
    beta: str = "4"
    a: str | None = None
    depth: int = 5
    kneading_depth: int = 64
    potential: str = "zero"
    t_grid: tuple[float, ...] = DEFAULT_T_GRID
    tol: float = 1e-12
    fmt: str = "table"
    seed: int = 0
    max_period: int = 6

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if self.kneading_depth < self.depth + 2:
            raise ConfigError("kneading_depth must exceed depth + 1")
        if self.fmt not in ("table", "jsonl", "csv"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if not 0 < self.tol < math.inf:
            raise ConfigError("tol must be positive and finite")
        if not self.t_grid or not all(map(math.isfinite, self.t_grid)):
            raise ConfigError("t_grid must be a non-empty list of finite values")
        if any(b <= a for a, b in zip(self.t_grid, self.t_grid[1:])):
            raise ConfigError("t_grid must be strictly increasing")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.max_period < 1:
            raise ConfigError("max_period must be >= 1")
        try:
            A = parse_potential(self.potential)
        except Exception as exc:
            raise ConfigError(f"bad potential spec: {exc}") from exc
        if A.kind == "digit_table" and len(A.digit_values) < self.m + 1:
            raise ConfigError("bad potential spec: digit_table needs m + 1 values")
        values = (*A.digit_values, *(A.block_values or {}).values(), A.geo_c)
        if not all(map(math.isfinite, values)):
            raise ConfigError("bad potential spec: every value must be finite")

    # -- flat key-value config text ------------------------------------

    @staticmethod
    def parse_text(text: str) -> dict[str, str]:
        """The key -> value text of flat ``key = value`` lines."""
        kv: dict[str, str] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {line!r}")
            k, _, v = line.partition("=")
            kv[k.strip()] = v.strip()
        return kv

    @staticmethod
    def from_mapping(kv: dict[str, str]) -> "RunConfig":
        """The configuration given as key -> value text.  This is the one
        place where text from the config file, SYMBETA_TOL or a flag
        becomes a value; a value that does not convert or fails the checks
        raises ConfigError."""
        kwargs: dict[str, Any] = {}
        casts = {
            "m": int, "depth": int, "kneading_depth": int, "seed": int,
            "max_period": int, "tol": float,
            "t_grid": lambda v: tuple(float(x) for x in v.split(",") if x),
            "beta": str, "a": str, "potential": str, "fmt": str,
        }
        for k, v in kv.items():
            if k not in casts:
                raise ConfigError(f"unknown config key {k!r}")
            try:
                kwargs[k] = casts[k](v)
            except ValueError as exc:
                raise ConfigError(f"bad value for {k}: {exc}") from exc
        return RunConfig(**kwargs)

    def params(self) -> Params:
        try:
            return Params.make(self.m, self.beta)
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"bad (m, beta): {exc}") from exc


@dataclass
class Report:
    """One subcommand's result.  ``columns`` maps each row field, in output
    order, to its values: a list, a 1-d array, or for words the uint8 digit
    matrix with one word per row."""

    command: str
    config: RunConfig
    summary: dict[str, Any] = field(default_factory=dict)
    columns: dict[str, list | np.ndarray] = field(default_factory=dict)
    row_kind: str = "row"
    warnings: list[str] = field(default_factory=list)
    exit_code: int = 0

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()), ()))


def _digits_str(ds) -> str:
    return "".join(str(d) for d in ds) if all(d <= 9 for d in ds) else \
        ",".join(str(d) for d in ds)


def _kneading(cfg: RunConfig, p: Params) -> Kneading:
    return build_kneading(p, cfg.kneading_depth)


# ---------------------------------------------------------------------------
# subcommands


def cmd_expand(cfg: RunConfig) -> Report:
    if cfg.a is None:
        raise ConfigError("expand requires a value: --a <decimal>")
    p = cfg.params()
    try:
        a = as_real(cfg.a)
        _check_range(a, p)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad value for a ({cfg.a}): {exc}") from exc
    rep = Report("expand", cfg)
    n = cfg.depth
    greedy = greedy_expansion(a, p, n)
    lazy = lazy_expansion(a, p, n)
    q = quasi_greedy(a, p, max(n, cfg.kneading_depth))
    q_prefix = q.prefix(n) if isinstance(q, PeriodicSeq) else tuple(q[:n])
    rep.summary = {
        "a": cfg.a,
        "depth": n,
        "greedy": _digits_str(greedy),
        "lazy": _digits_str(lazy),
        "quasi_greedy": _digits_str(q_prefix),
        "quasi_greedy_exact": str(q) if isinstance(q, PeriodicSeq) else None,
        "unique": greedy == lazy,
    }
    return rep


def cmd_check(cfg: RunConfig) -> Report:
    p = cfg.params()
    K = _kneading(cfg, p)
    rep = Report("check", cfg)
    trans = check_transitivity(p, K)
    lo, hi = digit_interval(p)
    ints = sorted(digit_interval_integers(p))
    basis = enumerate_words(p, K, cfg.depth)
    # a word's preimage digits a are those with a w[:-1] admissible: its
    # in-degree in the word graph.  Every a w[:-1] was a candidate of the
    # enumeration, so none is undecided.
    counts = _in_degree(*_word_graph(basis.digits))
    cmin, cmax = (int(counts.min()), int(counts.max())) if len(counts) else (0, 0)
    forb = forbidden_words(p, K, cfg.depth)
    rep.summary = {
        "m": p.m,
        "beta": float(p.beta),
        "golden_ratio": float(p.golden_ratio),
        "beta_T": float(beta_t(p.m)),
        "operator_regime": p.operator_regime,
        "kneading": K.describe(),
        "kneading_self_admissible": trans.self_admissible,
        "irreducible": trans.irreducibility.verdict,
        "irreducibility_failed_at": trans.irreducibility.failed_at,
        "irreducibility_skipped_j": list(trans.irreducibility.skipped),
        "transitivity": trans.verdict,
        "transitivity_reason": trans.reason,
        "digit_interval": [float(lo), float(hi)],
        "digit_interval_integers": ints,
        "preimage_count_min": cmin,
        "preimage_count_max": cmax,
        "basis_size": len(basis),
        "forbidden_words": [_digits_str(w) for w in forb],
    }
    if len(ints) < 2:
        rep.warnings.append(
            f"digit interval contains {len(ints)} integer(s) < 2: the interval "
            "argument alone does not certify two preimages; measured minimum "
            f"is {cmin}")
    if len(counts) and cmin < 2:
        rep.warnings.append(
            f"measured preimage count {cmin} < 2 violates the expected bound")
    if trans.verdict != "transitive":
        rep.warnings.append(f"transitivity: {trans.verdict} ({trans.reason})")
    return rep


def cmd_words(cfg: RunConfig) -> Report:
    p = cfg.params()
    K = _kneading(cfg, p)
    rep = Report("words", cfg, row_kind="word")
    basis = enumerate_words(p, K, cfg.depth)
    forb = forbidden_words(p, K, cfg.depth)
    rep.summary = {
        "depth": cfg.depth,
        "count": len(basis),
        "full_shift_count": (p.m + 1) ** cfg.depth,
        "forbidden_count": len(forb),
        "forbidden_words": [_digits_str(w) for w in forb],
    }
    rep.columns = {"word": basis.digits}
    return rep


def _build_solved(cfg: RunConfig, rep: Report, linear_scale: bool = False):
    """The solved system of ``cfg``; its warnings go to ``rep``, and an
    unconverged solve sets exit code 4.  With ``linear_scale``, a potential
    with max |A| >= ``LINEAR_LIMIT`` is refused (RegimeError)."""
    p = cfg.params()
    K = _kneading(cfg, p)
    A = parse_potential(cfg.potential)
    T = build_system(p, K, A, cfg.depth)
    a_max = float(np.max(np.abs(T.a_vals)))
    if linear_scale and a_max >= LINEAR_LIMIT:
        raise RegimeError(f"max |A| = {a_max!r} >= {LINEAR_LIMIT!r}: lambda and its "
                          "lk_solve cross-check are linear-scale, where exp(A) "
                          "overflows or underflows; use thermo or zerotemp")
    T = T.solve(tol=cfg.tol)
    rep.warnings.extend(T.warnings)
    _check_converged(rep, T, "power iteration")
    return p, K, A, T


def _check_converged(rep: Report, T: TransferSystem, what: str) -> None:
    """Warn and set exit code 4 when the solve of ``T`` did not converge."""
    if not T.eigen.converged:
        rep.warnings.append(f"{what} did not converge "
                            f"(residual {T.eigen.residual:.3e})")
        rep.exit_code = 4


def cmd_spectrum(cfg: RunConfig, full: bool = False) -> Report:
    rep = Report("spectrum", cfg, row_kind="cylinder")
    p, K, A, T = _build_solved(cfg, rep, linear_scale=True)
    eig = T.eigen
    psi, rho = eig.psi, eig.rho
    g = gibbs_measure(T)
    lk = lk_solve(T, inner_tol=max(cfg.tol, 1e-14))
    rep.summary = {
        "depth": cfg.depth,
        "basis_size": T.n_words,
        "potential": A.describe(),
        "lambda": eig.lam,
        "log_lambda": eig.log_lam,
        "pressure": g.pressure,
        "entropy": g.entropy,
        "average": g.average,
        "identity_residual": g.identity_residual,
        "row_sum_residual": g.nrm.row_sum_residual,
        "lk_lambda": lk.lam,
        "lk_vs_power": abs(lk.lam - eig.lam),
        "lk_min_margin": lk.min_margin,
        "converged": eig.converged,
        "iterations": eig.iterations,
        "solver_residual": eig.residual,
        "gap_estimate": eig.gap_estimate,
        "psi_min": float(np.min(psi)),
        "psi_max": float(np.max(psi)),
        "support_size": int(np.sum(g.nrm.support)),
    }
    keep = g.ranked(None if full else 10)
    rep.columns = {"word": T.basis.digits[keep], "mu": g.weights[keep],
                   "psi": psi[keep], "rho": rho[keep]}
    return rep


def cmd_thermo(cfg: RunConfig) -> Report:
    rep = Report("thermo", cfg, row_kind="gap")
    p, K, A, T = _build_solved(cfg, rep)
    g = gibbs_measure(T)
    inf_rep = entropy_inf_check(g, seed=cfg.seed)
    erg = max_ergodic_average(p, K, A, cfg.max_period)
    # the pressure asymptote of the maximal average: P(tA)/t at the last
    # grid point t2, and the slope of P from t2/2, each solve continuing
    # from the one before it
    t1, t2 = cfg.t_grid[-1] / 2, cfg.t_grid[-1]
    s1 = T.solve(tol=cfg.tol, t_scale=t1)
    s2 = s1.solve(tol=cfg.tol, t_scale=t2)
    for s in (s1, s2):
        _check_converged(rep, s, f"asymptote solve at t={s.eigen.t_scale!r}")
    rng = np.random.default_rng(cfg.seed)
    nus = [random_markov_measure(T, rng, label=f"markov_{i}") for i in range(20)]
    gaps = [variational_gap(g, nu) for nu in nus]
    rep.columns = {"measure": [nu.label for nu in nus],
                   "entropy": [nu.entropy_true for nu in nus],
                   "average": [nu.average(T) for nu in nus],
                   "gap": gaps}
    rep.summary = {
        "pressure": g.pressure,
        "entropy": g.entropy,
        "average": g.average,
        "identity_residual": g.identity_residual,
        "row_sum_residual": g.nrm.row_sum_residual,
        "inf_check_min": inf_rep.min_trial,
        "inf_check_min_gap": inf_rep.min_gap,
        "max_average_lower": erg.lower_bound,
        "max_average_upper": s2.eigen.log_lam / t2,
        "max_average_slope": (s2.eigen.log_lam - s1.eigen.log_lam) / (t2 - t1),
        "best_orbit": _digits_str(erg.best_orbit.word) if erg.best_orbit else None,
        "worst_gap_violation": max(-gap for gap in gaps),
        "converged": T.eigen.converged,
    }
    return rep


def cmd_zerotemp(cfg: RunConfig) -> Report:
    rep = Report("zerotemp", cfg, row_kind="t_point")
    p = cfg.params()
    K = _kneading(cfg, p)
    A = parse_potential(cfg.potential)
    curve = zero_temperature_scan(p, K, A, t_grid=cfg.t_grid, depth=cfg.depth,
                                  tol=cfg.tol, max_period=cfg.max_period)
    rep.warnings.extend(curve.warnings)
    rep.summary = {
        "depth": cfg.depth,
        "potential": A.describe(),
        "max_average_lower": curve.max_avg_lower,
        "max_average_upper": curve.max_avg_upper,
        "residual_entropy": curve.residual_entropy,
        "cesaro_tail": curve.cesaro_tail,
        "richardson": curve.richardson,
        "monotone_tail": curve.monotone_tail,
    }
    rep.columns = {name: curve.column(name)
                   for name in ("t", "pressure", "entropy", "average",
                                "identity_residual", "mode", "converged")}
    if any(not pt.converged for pt in curve.points):
        rep.exit_code = 4
    return rep


# ---------------------------------------------------------------------------
# rendering


def _fmt_val(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt_val(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_fmt_val(x)}" for k, x in sorted(v.items())) + "}"
    return str(v)


def render_report(rep: Report, fmt: str) -> str:
    if fmt == "jsonl":
        return _render_jsonl(rep)
    if fmt == "csv":
        return _render_csv(rep)
    return _render_table(rep)


def _word_cells(D: np.ndarray) -> list[str]:
    """``_digits_str`` of every row of a uint8 digit matrix.  The digit
    characters of all rows are made in one pass; a row holding a digit
    above 9 takes the comma form instead."""
    n = D.shape[1]
    text = (D + np.uint8(48)).tobytes().decode("latin-1")
    cells = [text[i:i + n] for i in range(0, len(text), n)]
    for i in np.flatnonzero(D.max(axis=1) > 9).tolist():
        cells[i] = ",".join(map(str, D[i].tolist()))
    return cells


def _json_val(v) -> str:
    v = _jsonable(v)
    # json.dumps writes a finite float as its repr
    return repr(v) if type(v) is float else json.dumps(v)


def _cells(col, json_form: bool) -> list[str]:
    """The cell strings of one column, as JSON values or as ``_fmt_val``."""
    if isinstance(col, np.ndarray) and col.ndim == 2:
        cells = _word_cells(col)
        # digits and commas need no JSON escaping
        return [f'"{c}"' for c in cells] if json_form else cells
    values = col.tolist() if isinstance(col, np.ndarray) else col
    return list(map(_json_val if json_form else _fmt_val, values))


def _join_rows(lits: list[str], cols: list[list[str]]) -> list[str]:
    """Row i is lits[0] + cols[0][i] + lits[1] + ... + cols[-1][i] + lits[-1],
    built in one pass per column."""
    rows = [lits[0] + c + lits[1] for c in cols[0]]
    for col, lit in zip(cols[1:], lits[2:]):
        rows = [r + c + lit for r, c in zip(rows, col)]
    return rows


def _render_table(rep: Report) -> str:
    out = [f"# symbeta {rep.command}  (m={rep.config.m}, beta={rep.config.beta})"]
    for k, v in rep.summary.items():
        out.append(f"{k:28s} {_fmt_val(v)}")
    if rep.n_rows:
        out.append("")
        out.append("  ".join(f"{c:>16s}" for c in rep.columns))
        cells = [[c.rjust(16) for c in _cells(col, False)] for col in rep.columns.values()]
        out.extend(_join_rows([""] + ["  "] * (len(cells) - 1) + [""], cells))
    for w in rep.warnings:
        out.append(f"WARNING: {w}")
    return "\n".join(out) + "\n"


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def _render_jsonl(rep: Report) -> str:
    lines = []
    cfgd = {f.name: _jsonable(getattr(rep.config, f.name)) for f in fields(rep.config)}
    lines.append(json.dumps({"record": "config", "command": rep.command, **cfgd},
                            sort_keys=True))
    lines.append(json.dumps({"record": "summary", **_jsonable(rep.summary)},
                            sort_keys=True))
    if rep.n_rows:
        # keys sorted as json.dumps sorts them; the record kind is constant,
        # so it joins the text between the cells
        lits, cells, text = [], [], "{"
        for i, k in enumerate(sorted(["record", *rep.columns])):
            text += (", " if i else "") + json.dumps(k) + ": "
            if k == "record":
                text += json.dumps(rep.row_kind)
            else:
                lits.append(text)
                cells.append(_cells(rep.columns[k], True))
                text = ""
        lines.extend(_join_rows(lits + [text + "}"], cells))
    for w in rep.warnings:
        lines.append(json.dumps({"record": "warning", "message": w}, sort_keys=True))
    return "\n".join(lines) + "\n"


def _render_csv(rep: Report) -> str:
    lines = []
    if rep.n_rows:
        lines.append(",".join(rep.columns))
        cells = [_cells(col, False) for col in rep.columns.values()]
        lines.extend(_join_rows([""] + [","] * (len(cells) - 1) + [""], cells))
    else:
        lines.append("key,value")
        for k, v in rep.summary.items():
            lines.append(f"{k},{_fmt_val(v)}")
    for w in rep.warnings:
        lines.append(f"# WARNING: {w}")
    return "\n".join(lines) + "\n"
