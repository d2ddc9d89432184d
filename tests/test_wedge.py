"""Exterior squares: the equivalence with antisymmetric matrices, the
wedge pairing and the Pfaffian."""

import random

import pytest

from isogeny_kit.errors import NotAntisymmetric
from isogeny_kit.exactfield import GF
from isogeny_kit.linalg import Mat
from isogeny_kit.wedge import (
    lambda2_matrix,
    pfaffian,
    wedge_pairing,
    wedge_to_antisym,
    _POS,
)

F3 = GF(3)
F5 = GF(5)


def unit(field, ij, c=1):
    v = [field(0)] * 6
    v[_POS[ij]] = field(c)
    return v


def test_wedge_to_antisym_examples():
    m = wedge_to_antisym(F5, unit(F5, (0, 1)))
    expect = Mat.zero(F5, 4, 4)
    rows = [r[:] for r in expect.rows]
    rows[0][1] = F5(1)
    rows[1][0] = F5(-1)
    assert m == Mat(F5, rows)
    zero = wedge_to_antisym(F5, [F5(0)] * 6)
    assert zero == Mat.zero(F5, 4, 4)


def test_pairing_examples():
    # <e1^e2, e3^e4> = 1: matches the Pfaffian cross term
    assert wedge_pairing(F5, unit(F5, (0, 1)), unit(F5, (2, 3))) == F5(1)
    assert wedge_pairing(F5, unit(F5, (0, 2)), unit(F5, (1, 3))) == F5(-1)
    assert wedge_pairing(F5, unit(F5, (0, 3)), unit(F5, (1, 2))) == F5(1)


def test_pfaffian_examples():
    # block diag ((0,1),(-1,0)) + ((0,1),(-1,0)): pf = 1
    u = [F5(1), F5(0), F5(0), F5(0), F5(0), F5(1)]
    t = wedge_to_antisym(F5, u)
    assert pfaffian(t) == F5(1)
    assert pfaffian(Mat.zero(F5, 4, 4)) == F5(0)
    rng = random.Random(0)
    for _ in range(60):
        v = [F5(rng.randrange(5)) for _ in range(6)]
        t = wedge_to_antisym(F5, v)
        assert pfaffian(t) * pfaffian(t) == t.det()
    with pytest.raises(NotAntisymmetric):
        pfaffian(Mat.identity(F5, 4))


def test_naturality_and_det_multiplier():
    rng = random.Random(1)
    for field in (F3, F5):
        for _ in range(150):
            g = Mat(field, [[field(rng.randrange(field.p)) for _ in range(4)]
                            for _ in range(4)])
            u = [field(rng.randrange(field.p)) for _ in range(6)]
            w = [field(rng.randrange(field.p)) for _ in range(6)]
            l2 = lambda2_matrix(g)
            assert wedge_to_antisym(field, l2.apply(u)) \
                == g * wedge_to_antisym(field, u) * g.T
            assert wedge_pairing(field, l2.apply(u), l2.apply(w)) \
                == g.det() * wedge_pairing(field, u, w)
            t = wedge_to_antisym(field, u)
            assert pfaffian(g * t * g.T) == g.det() * pfaffian(t)


def test_pairing_is_polarized_pfaffian():
    rng = random.Random(2)
    for _ in range(50):
        u = [F5(rng.randrange(5)) for _ in range(6)]
        w = [F5(rng.randrange(5)) for _ in range(6)]
        tu = wedge_to_antisym(F5, u)
        tw = wedge_to_antisym(F5, w)
        tuw = wedge_to_antisym(F5, [a + b for a, b in zip(u, w)])
        assert wedge_pairing(F5, u, w) == pfaffian(tuw) - pfaffian(tu) - pfaffian(tw)

