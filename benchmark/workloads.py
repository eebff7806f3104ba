"""Seeded CLI cases for the four benchmark workloads.

The program receives only argv.  Seed 0 gives exactly the argv lists
below.  Every other seed adds its ``--seed`` flag (the thermo test
measures and the entropy trial functions are drawn from it), moves the
spectrum-deep potential coefficients (digit-table values and theta by at
most 0.02, the geometric c by at most 0.1) and draws the values passed to
``expand --a``.  Sizes (m, beta, depth, kneading depth, kmax) never
change with the seed, so every seed does the same amount of work, and the
cases that exit 4 today stay in.  Over seeds 1-10 the traced counts
(words, edges, ``is_admissible_point`` calls, log-solve iterations) are
identical on thermo-gaps, and on spectrum-deep only the power iterations
move (306-309), a fraction of a percent of the pass.  On spectrum-deep,
one seed run ten times spread as widely as ten seeds did.  So the spread
of ``wall_s`` between runs comes from the machine, not from the seed.

The thermo-gaps and zerotemp-scan potentials stay at their seed-0 values.
Whether a log-domain solve there stalls until ``max_iter`` depends on
rounding-level luck in its absolute stop test, so moving a coefficient by
0.02 changed one zerotemp-scan pass from 13.2 s to 1.3 s (seeds 0-4 gave
13.2, 9.7, 1.3, 1.6 and 6.4 s) and made the thermo exit-4 case exit 0 on
one seed of four.  ``zerotemp`` does not read ``--seed``, so every seed of
zerotemp-scan runs the same computation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

_JITTER = 0.02


@dataclass(frozen=True)
class Case:
    """One CLI invocation and what its output is checked against."""

    argv: tuple[str, ...]
    # lambda = sum(exp(c_a)) on a full shift with a digit_table potential
    full_shift_lambda: float | None = None
    # (a, beta) as exact fractions when beta is rational, for expand
    exact_expand: tuple[Fraction, Fraction] | None = None
    # exit codes after which the output is checked; any other is a failure.
    # Exit 4 is the CLI's non-convergence verdict, allowed only on the cases
    # that give it today.
    exits: tuple[int, ...] = (0,)

    @property
    def command(self) -> str:
        return self.argv[0]

    def arg(self, flag: str) -> str | None:
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return None


WORKLOADS = ("spectrum-deep", "zerotemp-scan", "thermo-gaps", "symbolic")


def _fmt(x: float) -> str:
    s = f"{x:.4f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def _digit_table(rng: random.Random | None, base: list[float]) -> tuple[str, list[float]]:
    vals = list(base) if rng is None else \
        [float(_fmt(c + rng.uniform(-_JITTER, _JITTER))) for c in base]
    return "digit_table:" + ",".join(_fmt(v) for v in vals), vals


def _geometric(rng: random.Random | None) -> str:
    c, theta = (1.0, 0.25) if rng is None else \
        (1.0 + rng.uniform(-0.1, 0.1), 0.25 + rng.uniform(-_JITTER, _JITTER))
    return f"geometric:c={_fmt(c)},theta={_fmt(theta)},kmax=12"


def _case(text: str, seed: int | None, **kw) -> Case:
    argv = text.split()
    if seed is not None:
        argv += ["--seed", str(seed)]
    return Case(tuple(argv), **kw)


def cases(workload: str, seed: int) -> list[Case]:
    """The argv list of one workload pass for ``seed``."""
    rng = None if seed == 0 else random.Random(f"{workload}:{seed}")
    flag = None if seed == 0 else seed
    if workload == "spectrum-deep":
        pot, vals = _digit_table(rng, [0.3, 0, 0.1, 0.05, 0.2, 0.1])
        return [
            _case(f"spectrum --m 5 --beta 6 --depth 7 --potential {pot}", flag,
                  full_shift_lambda=sum(math.exp(v) for v in vals)),
            _case(f"spectrum --m 4 --beta 5 --depth 7 --potential {_geometric(rng)}", flag),
            _case(f"spectrum --m 3 --beta 3.5 --depth 9 --potential {_geometric(rng)}", flag),
        ]
    if workload == "zerotemp-scan":
        pot = "digit_table:0.3,0,0.1,0.05"
        return [
            _case(f"zerotemp --m 3 --beta 3.5 --depth 7 --potential {pot} --format csv", flag,
                  exits=(0, 4)),
            _case(f"zerotemp --m 3 --beta 3.5 --depth 6 --potential {pot}", flag, exits=(0, 4)),
        ]
    if workload == "thermo-gaps":
        return [
            _case("thermo --m 4 --beta 5 --depth 5 --potential digit_table:0.3,0,0.1,0.05,0.2", flag),
            _case("thermo --m 3 --beta 3.5 --depth 6 --potential digit_table:0.3,0,0.1,0.05", flag,
                  exits=(0, 4)),
        ]
    if workload == "symbolic":
        # a in (0.5, 1]: inside [0, m/(beta-1)] for both bases.
        a1 = "1" if rng is None else _fmt(rng.randint(51, 100) / 100)
        a2 = "0.9" if rng is None else _fmt(rng.randint(51, 100) / 100)
        return [
            _case(f"expand --m 3 --beta beta_T --a {a1} --depth 1000 --kneading-depth 1002", flag),
            _case(f"expand --m 3 --beta 3.5 --a {a2} --depth 2000 --kneading-depth 2002", flag,
                  exact_expand=(Fraction(a2), Fraction("3.5"))),
            _case("check --m 3 --beta beta_T --depth 6 --kneading-depth 512", flag),
            _case("check --m 4 --beta 4.7 --depth 7", flag),
            _case("words --m 4 --beta 4.7 --depth 8 --format jsonl", flag),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
