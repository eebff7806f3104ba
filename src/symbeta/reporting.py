"""Batch run configuration, report assembly and output rendering.

Reports render to a human table, line-delimited JSON records (one object
per row) or CSV for curves.  Output is deterministic: identical config and
version produce byte-identical bytes (sorted keys, repr floats, no
timestamps).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .expansion import (Params, beta_t, golden_ratio, greedy_expansion,
                        lazy_expansion, quasi_greedy, unique_expansion)
from .operator import build_system, lk_solve, normalize_potential
from .potentials import parse_potential
from .sequences import PeriodicSeq
from .shift import (Kneading, build_kneading, check_transitivity,
                    digit_interval, digit_interval_integers, enumerate_words,
                    forbidden_words, preimage_digits)
from .thermo import (entropy_inf_check, entropy_of_gibbs, gibbs_measure,
                     max_ergodic_average, pressure, random_markov_measure,
                     variational_gap, zero_temperature_scan, DEFAULT_T_GRID,
                     average_energy)


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
    log_threshold: float = 32.0
    fmt: str = "table"
    seed: int = 0
    max_period: int = 6
    irreducibility_j: int = 32

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if self.kneading_depth < self.depth + 2:
            raise ConfigError("kneading_depth must exceed depth + 1")
        if self.fmt not in ("table", "jsonl", "csv"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if any(b <= a for a, b in zip(self.t_grid, self.t_grid[1:])):
            raise ConfigError("t_grid must be strictly increasing")
        try:
            parse_potential(self.potential)
        except Exception as exc:
            raise ConfigError(f"bad potential spec: {exc}") from exc

    # -- flat key-value config text ------------------------------------

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            if f.name == "t_grid":
                v = ",".join(repr(x) for x in v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "RunConfig":
        kv: dict[str, str] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {line!r}")
            k, _, v = line.partition("=")
            kv[k.strip()] = v.strip()
        return RunConfig.from_mapping(kv)

    @staticmethod
    def from_mapping(kv: dict[str, str]) -> "RunConfig":
        kwargs: dict[str, Any] = {}
        casts = {
            "m": int, "depth": int, "kneading_depth": int, "seed": int,
            "max_period": int, "irreducibility_j": int,
            "tol": float, "log_threshold": float,
            "beta": str, "a": str, "potential": str, "fmt": str,
        }
        for k, v in kv.items():
            if k == "t_grid":
                kwargs[k] = tuple(float(x) for x in v.split(",") if x)
            elif k in casts:
                kwargs[k] = casts[k](v)
            else:
                raise ConfigError(f"unknown config key {k!r}")
        try:
            return RunConfig(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def params(self) -> Params:
        try:
            return Params.make(self.m, self.beta)
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"bad (m, beta): {exc}") from exc


@dataclass
class Report:
    command: str
    config: RunConfig
    summary: dict[str, Any] = field(default_factory=dict)
    rows: list[dict[str, Any]] = field(default_factory=list)
    row_kind: str = "row"
    warnings: list[str] = field(default_factory=list)
    exit_code: int = 0


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
    rep = Report("expand", cfg)
    n = cfg.depth
    greedy = greedy_expansion(cfg.a, p, n)
    lazy = lazy_expansion(cfg.a, p, n)
    q = quasi_greedy(cfg.a, p, max(n, cfg.kneading_depth))
    q_prefix = q.prefix(n) if isinstance(q, PeriodicSeq) else tuple(q[:n])
    rep.summary = {
        "a": cfg.a,
        "depth": n,
        "greedy": _digits_str(greedy),
        "lazy": _digits_str(lazy),
        "quasi_greedy": _digits_str(q_prefix),
        "quasi_greedy_exact": str(q) if isinstance(q, PeriodicSeq) else None,
        "unique": unique_expansion(cfg.a, p, n),
    }
    return rep


def cmd_check(cfg: RunConfig) -> Report:
    p = cfg.params()
    K = _kneading(cfg, p)
    rep = Report("check", cfg)
    trans = check_transitivity(p, K, J=cfg.irreducibility_j)
    lo, hi = digit_interval(p)
    ints = sorted(digit_interval_integers(p))
    basis = enumerate_words(p, K, cfg.depth)
    counts = sorted(len(preimage_digits(w, p, K)) for w in basis.words)
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
        "preimage_count_min": counts[0] if counts else 0,
        "preimage_count_max": counts[-1] if counts else 0,
        "basis_size": len(basis),
        "forbidden_words": [_digits_str(w) for w in forb],
    }
    if len(ints) < 2:
        rep.warnings.append(
            f"digit interval contains {len(ints)} integer(s) < 2: the interval "
            "argument alone does not certify two preimages; measured minimum "
            f"is {counts[0] if counts else 0}")
    if counts and counts[0] < 2:
        rep.warnings.append(
            f"measured preimage count {counts[0]} < 2 violates the expected bound")
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
    rep.rows = [{"word": _digits_str(w)} for w in basis.words]
    return rep


def _build_solved(cfg: RunConfig):
    p = cfg.params()
    K = _kneading(cfg, p)
    A = parse_potential(cfg.potential)
    T = build_system(p, K, A, cfg.depth).solve(tol=cfg.tol)
    return p, K, A, T


def cmd_spectrum(cfg: RunConfig, full: bool = False) -> Report:
    rep = Report("spectrum", cfg, row_kind="cylinder")
    p, K, A, T = _build_solved(cfg)
    rep.warnings.extend(T.warnings)
    eig = T.eigen
    psi, rho = eig.psi, eig.rho
    nrm = normalize_potential(T)
    mu = gibbs_measure(T).weights
    lk = lk_solve(T, inner_tol=max(cfg.tol, 1e-14))
    h = entropy_of_gibbs(T, nrm)
    avg = average_energy(T, mu)
    rep.summary = {
        "depth": cfg.depth,
        "basis_size": T.n_words,
        "potential": A.describe(),
        "lambda": eig.lam,
        "log_lambda": eig.log_lam,
        "pressure": eig.log_lam,
        "entropy": h,
        "average": avg,
        "identity_residual": abs(eig.log_lam - h - avg),
        "row_sum_residual": nrm.row_sum_residual,
        "lk_lambda": lk.lam,
        "lk_vs_power": abs(lk.lam - eig.lam),
        "lk_min_margin": lk.min_margin,
        "converged": eig.converged,
        "iterations": eig.iterations,
        "solver_residual": eig.residual,
        "gap_estimate": eig.gap_estimate,
        "psi_min": float(np.min(psi)),
        "psi_max": float(np.max(psi)),
        "support_size": int(np.sum(nrm.support)),
    }
    if not eig.converged:
        rep.warnings.append(f"power iteration did not converge "
                            f"(residual {eig.residual:.3e})")
        rep.exit_code = 4
    order = np.argsort(-mu)
    keep = order if full else order[:10]
    rep.rows = [{
        "word": _digits_str(T.basis.word(i)),
        "mu": float(mu[i]),
        "psi": float(psi[i]),
        "rho": float(rho[i]),
    } for i in keep]
    return rep


def cmd_thermo(cfg: RunConfig) -> Report:
    rep = Report("thermo", cfg, row_kind="gap")
    p, K, A, T = _build_solved(cfg)
    rep.warnings.extend(T.warnings)
    eig = T.eigen
    nrm = normalize_potential(T)
    mu = gibbs_measure(T).weights
    h = entropy_of_gibbs(T, nrm)
    avg = average_energy(T, mu)
    inf_rep = entropy_inf_check(T, nrm, seed=cfg.seed)
    erg = max_ergodic_average(p, K, A, cfg.max_period, system=T,
                              t_pair=(cfg.t_grid[-1] / 2, cfg.t_grid[-1]))
    rng = np.random.default_rng(cfg.seed)
    worst = -math.inf
    for i in range(20):
        nu = random_markov_measure(T, rng, label=f"markov_{i}")
        g = variational_gap(T, nu, nrm)
        rep.rows.append({"measure": g.label, "entropy_upper": g.entropy_upper,
                         "average": g.average, "gap": g.gap})
        worst = max(worst, -g.gap)
    rep.summary = {
        "pressure": pressure(T),
        "entropy": h,
        "average": avg,
        "identity_residual": abs(pressure(T) - h - avg),
        "row_sum_residual": nrm.row_sum_residual,
        "inf_check_min": inf_rep.min_trial,
        "inf_check_min_gap": inf_rep.min_gap,
        "inf_check_u0_gap": inf_rep.u0_gap,
        "max_average_lower": erg.lower_bound,
        "max_average_upper": erg.upper_estimate,
        "max_average_slope": erg.slope_estimate,
        "best_orbit": _digits_str(erg.best_orbit.word) if erg.best_orbit else None,
        "worst_gap_violation": worst,
        "converged": eig.converged,
    }
    if not eig.converged:
        rep.exit_code = 4
    return rep


def cmd_zerotemp(cfg: RunConfig) -> Report:
    rep = Report("zerotemp", cfg, row_kind="t_point")
    p = cfg.params()
    K = _kneading(cfg, p)
    A = parse_potential(cfg.potential)
    curve = zero_temperature_scan(p, K, A, t_grid=cfg.t_grid, depth=cfg.depth,
                                  log_threshold=cfg.log_threshold, tol=cfg.tol,
                                  max_period=cfg.max_period)
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
    rep.rows = [{
        "t": pt.t, "pressure": pt.pressure, "entropy": pt.entropy,
        "average": pt.average, "identity_residual": pt.identity_residual,
        "mode": pt.mode, "converged": pt.converged,
    } for pt in curve.points]
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


def _render_table(rep: Report) -> str:
    out = [f"# symbeta {rep.command}  (m={rep.config.m}, beta={rep.config.beta})"]
    for k, v in rep.summary.items():
        out.append(f"{k:28s} {_fmt_val(v)}")
    if rep.rows:
        cols = list(rep.rows[0].keys())
        out.append("")
        out.append("  ".join(f"{c:>16s}" for c in cols))
        for r in rep.rows:
            out.append("  ".join(f"{_fmt_val(r[c]):>16s}" for c in cols))
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
    for r in rep.rows:
        lines.append(json.dumps({"record": rep.row_kind, **_jsonable(r)},
                                sort_keys=True))
    for w in rep.warnings:
        lines.append(json.dumps({"record": "warning", "message": w}, sort_keys=True))
    return "\n".join(lines) + "\n"


def _render_csv(rep: Report) -> str:
    lines = []
    if rep.rows:
        cols = list(rep.rows[0].keys())
        lines.append(",".join(cols))
        for r in rep.rows:
            lines.append(",".join(_fmt_val(r[c]) for c in cols))
    else:
        lines.append("key,value")
        for k, v in rep.summary.items():
            lines.append(f"{k},{_fmt_val(v)}")
    for w in rep.warnings:
        lines.append(f"# WARNING: {w}")
    return "\n".join(lines) + "\n"
