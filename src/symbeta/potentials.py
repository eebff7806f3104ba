"""Potential functions on the shift space.

A potential is evaluated on (enough leading digits of) a point of the
shift.  Supported kinds:

- ``zero``:        A = 0
- ``digit_table``: A(x) = c[x(1)], one value per first digit
- ``block_table``: A(x) = table[x(1..k)], one value per admissible k-word, k >= 1
- ``geometric``:   A(x) = c * sum_{j<=kmax} theta^(j-1) x(j), 0 < theta < 1/2,
  kmax >= 1

Every kind is Holder for the shift metric d = 2^(1-n).  The first three
are constant on depth-k cylinders (k = 0, 1 and the block length); on a
depth-n cylinder a ``geometric`` potential varies by at most
|c| m theta^n / (1 - theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .sequences import Word


class MissingBlockError(KeyError):
    """A ``block_table`` potential has no value for a block it is read on."""

    def __str__(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class PotentialSpec:
    kind: str
    digit_values: tuple[float, ...] = ()
    block_k: int = 0
    block_values: Mapping[Word, float] | None = None
    geo_c: float = 0.0
    geo_theta: float = 0.25
    geo_kmax: int = 12

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "PotentialSpec":
        return PotentialSpec(kind="zero")

    @staticmethod
    def digit_table(values: Sequence[float]) -> "PotentialSpec":
        return PotentialSpec(kind="digit_table",
                             digit_values=tuple(float(v) for v in values))

    @staticmethod
    def block_table(k: int, table: Mapping[Sequence[int], float]) -> "PotentialSpec":
        if k < 1:
            raise ValueError("block_table block length must be >= 1")
        tbl = {tuple(w): float(v) for w, v in table.items()}
        if any(len(w) != k for w in tbl):
            raise ValueError(f"block_table keys must have length {k}")
        return PotentialSpec(kind="block_table", block_k=k, block_values=tbl)

    @staticmethod
    def geometric(c: float, theta: float = 0.25, kmax: int = 12) -> "PotentialSpec":
        if not (0.0 < theta < 0.5):
            raise ValueError("theta must lie in (0, 1/2)")
        if kmax < 1:
            raise ValueError("kmax must be >= 1")
        return PotentialSpec(kind="geometric", geo_c=float(c), geo_theta=float(theta),
                             geo_kmax=int(kmax))

    # -- evaluation ----------------------------------------------------

    @property
    def needed_digits(self) -> int:
        """How many leading digits of a point the evaluation reads."""
        if self.kind == "zero":
            return 0
        if self.kind == "digit_table":
            return 1
        if self.kind == "block_table":
            return self.block_k
        return self.geo_kmax

    def value(self, digits: Sequence[int]) -> float:
        """Evaluate at a point given by its leading digits (1-based order)."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "digit_table":
            return self.digit_values[digits[0]]
        if self.kind == "block_table":
            key = tuple(digits[:self.block_k])
            if self.block_values is None or key not in self.block_values:
                raise MissingBlockError(f"block_table has no value for {key}")
            return self.block_values[key]
        c, theta, kmax = self.geo_c, self.geo_theta, self.geo_kmax
        acc = 0.0
        w = 1.0
        for j in range(min(kmax, len(digits))):
            acc += w * digits[j]
            w *= theta
        return c * acc

    def values(self, points: np.ndarray) -> np.ndarray:
        """``value`` at every row of a digit matrix, bit-identical to it:
        the same floating-point operations run in the same order."""
        n = len(points)
        if self.kind == "zero":
            return np.zeros(n)
        if self.kind == "digit_table":
            return np.asarray(self.digit_values)[points[:, 0]]
        if self.kind == "block_table":
            # one lookup per distinct block; the lex-first missing block
            # raises, as the row-by-row loop would
            blocks, inverse = np.unique(points[:, :self.block_k], axis=0,
                                        return_inverse=True)
            table = [self.value(b) for b in blocks.tolist()]
            return np.asarray(table, dtype=float)[inverse.reshape(-1)]
        c, theta, kmax = self.geo_c, self.geo_theta, self.geo_kmax
        acc = np.zeros(n)
        w = 1.0
        for j in range(min(kmax, points.shape[1])):
            acc += w * points[:, j]
            w *= theta
        return c * acc

    def sup_norm_bound(self, m: int) -> float:
        """Upper bound on |A| over the shift."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "digit_table":
            return max(abs(v) for v in self.digit_values)
        if self.kind == "block_table":
            return max(abs(v) for v in self.block_values.values())
        return abs(self.geo_c) * m / (1.0 - self.geo_theta)

    def describe(self) -> str:
        if self.kind == "zero":
            return "zero"
        if self.kind == "digit_table":
            return "digit_table:" + ",".join(repr(v) for v in self.digit_values)
        if self.kind == "block_table":
            items = sorted(self.block_values.items())
            body = ",".join("".join(map(str, w)) + "=" + repr(v) for w, v in items)
            return f"block_table:{self.block_k}:{body}"
        return (f"geometric:c={self.geo_c!r},theta={self.geo_theta!r},"
                f"kmax={self.geo_kmax}")


def parse_potential(text: str) -> PotentialSpec:
    """Parse the CLI potential string format (inverse of ``describe``)."""
    text = text.strip()
    if text == "zero" or text == "":
        return PotentialSpec.zero()
    head, _, rest = text.partition(":")
    if head == "digit_table":
        values = [float(v) for v in rest.split(",") if v != ""]
        if not values:
            raise ValueError("digit_table needs at least one value")
        return PotentialSpec.digit_table(values)
    if head == "block_table":
        kpart, _, body = rest.partition(":")
        k = int(kpart)
        table = {}
        for item in body.split(","):
            if not item:
                continue
            w, _, v = item.partition("=")
            table[tuple(int(ch) for ch in w)] = float(v)
        return PotentialSpec.block_table(k, table)
    if head == "geometric":
        kv = dict(item.split("=", 1) for item in rest.split(",") if item)
        return PotentialSpec.geometric(
            c=float(kv.get("c", "1.0")),
            theta=float(kv.get("theta", "0.25")),
            kmax=int(kv.get("kmax", "12")),
        )
    raise ValueError(f"unknown potential kind {head!r}")

