import math

import pytest

from symbeta.expansion import Params
from symbeta.potentials import PotentialSpec, parse_potential
from symbeta.shift import build_kneading, canonical_point, enumerate_words


def test_zero_and_digit_table_eval():
    z = PotentialSpec.zero()
    assert z.value((1, 2, 3)) == 0.0
    dt = PotentialSpec.digit_table([0.5, -0.25, 0.0])
    assert dt.value((1, 0, 2)) == -0.25
    assert dt.needed_digits == 1
    assert dt.sup_norm_bound(2) == 0.5


def test_block_table_eval_and_validation():
    bt = PotentialSpec.block_table(2, {(0, 1): 1.0, (1, 0): -1.0})
    assert bt.value((0, 1, 1)) == 1.0
    with pytest.raises(KeyError):
        bt.value((1, 1))
    with pytest.raises(ValueError):
        PotentialSpec.block_table(2, {(0, 1, 1): 1.0})


def test_geometric_eval():
    g = PotentialSpec.geometric(2.0, theta=0.25, kmax=3)
    # 2 * (1*1 + 0.25*2 + 0.0625*3)
    assert g.value((1, 2, 3, 9)) == pytest.approx(2 * (1 + 0.5 + 0.1875))
    assert (g.geo_c, g.geo_theta, g.geo_kmax) == (2.0, 0.25, 3)
    with pytest.raises(ValueError):
        PotentialSpec.geometric(1.0, theta=0.7)


def test_parse_describe_round_trip():
    specs = [
        PotentialSpec.zero(),
        PotentialSpec.digit_table([0.3, 0.0, 0.1]),
        PotentialSpec.block_table(2, {(0, 1): 0.5, (1, 1): -0.5}),
        PotentialSpec.geometric(0.4, theta=0.125, kmax=9),
    ]
    for s in specs:
        t = parse_potential(s.describe())
        assert t.describe() == s.describe()
    with pytest.raises(ValueError):
        parse_potential("mystery:1,2")


def test_holder_bound_on_sampled_cylinders():
    # variation of A over depth-n cylinders <= |c| m theta^n / (1 - theta),
    # measured on canonical sample points grouped by common prefixes
    p = Params.make(3, 4)
    K = build_kneading(p, 64)
    c, theta = 0.6, 0.25
    g = PotentialSpec.geometric(c, theta=theta, kmax=10)
    words = enumerate_words(p, K, 6).words
    for n in (2, 3, 4):
        groups: dict[tuple, list] = {}
        for w in words[::5]:
            groups.setdefault(w[:n], []).append(g.value(canonical_point(w, K, 10)))
        worst = max(max(v) - min(v) for v in groups.values() if len(v) > 1)
        assert worst <= abs(c) * p.m * theta ** n / (1 - theta) + 1e-12
