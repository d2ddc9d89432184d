"""Multi-quadratic towers F(sqrt(d1), ..., sqrt(dk)): root relations, the
ring axioms and Galois conjugation on seeded elements, inverses, zero
divisors of degenerate towers, and coercion between towers."""

import random

import pytest

from isogeny_kit.errors import FieldMismatch, NonInvertible
from isogeny_kit.exactfield import GF, QQ
from isogeny_kit.towers import QuadTower

F5 = GF(5)
F7 = GF(7)

# (field, generators, is a field): the last four have zero divisors
# (7 = 2 in F_5; 3 * 5 = 1 = 1^2 and 2 = 3^2 in F_7; 4 = 2^2 in Q)
TOWERS = [
    (F5, [2], True),
    (F7, [3], True),
    (QQ, [-1], True),
    (QQ, [2, 3, 5], True),
    (F5, [2, 3, 7], False),
    (F7, [3, 5], False),
    (F7, [2], False),
    (QQ, [4, 3], False),
]
IDS = ["%s%s" % (f, g) for f, g, _ in TOWERS]


def sample(tower, rng, n=6):
    field = tower.field
    if field.p is None:
        draw = lambda: rng.randint(-4, 4)
    else:
        draw = lambda: rng.randrange(field.p)
    return [tower.elem([draw() for _ in range(tower.dim)]) for _ in range(n)]


@pytest.mark.parametrize("field,gens,_", TOWERS, ids=IDS)
def test_root_squares_to_generator(field, gens, _):
    t = QuadTower(field, gens)
    for i, d in enumerate(t.gens):
        r = t.root(i)
        assert r * r == t.from_scalar(d)
        assert r * r == d
        assert not r.is_scalar()


@pytest.mark.parametrize("field,gens,_", TOWERS, ids=IDS)
def test_ring_axioms(field, gens, _):
    t = QuadTower(field, gens)
    xs = sample(t, random.Random(len(gens) * 31 + (field.p or 0)))
    for x, y, z in zip(xs, xs[1:] + xs[:1], xs[2:] + xs[:2]):
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x - y) + y == x
        assert x * t.one() == x and x * t.zero() == t.zero()
        assert x * 3 == x + x + x == 3 * x


@pytest.mark.parametrize("field,gens,_", TOWERS, ids=IDS)
def test_conj_is_ring_automorphism(field, gens, _):
    t = QuadTower(field, gens)
    xs = sample(t, random.Random(7 + len(gens)))
    for i in range(t.k):
        conj = lambda v: t.conj(v, i)
        assert conj(t.root(i)) == -t.root(i)
        assert conj(t.one()) == t.one()
        for x, y in zip(xs, xs[1:]):
            assert conj(x + y) == conj(x) + conj(y)
            assert conj(x * y) == conj(x) * conj(y)
            assert conj(conj(x)) == x


@pytest.mark.parametrize("field,gens,is_field", TOWERS, ids=IDS)
def test_inverse(field, gens, is_field):
    t = QuadTower(field, gens)
    for x in sample(t, random.Random(3 + len(gens)), n=8):
        if x.is_zero():
            continue
        try:
            inv = x.inverse()
        except NonInvertible:
            assert not is_field
            # a zero divisor: left multiplication is singular
            assert x.mult_matrix().rank() < t.dim
            continue
        assert x * inv == t.one() and inv * x == t.one()
        assert x / x == t.one()


@pytest.mark.parametrize("field", [F5, F7, QQ], ids=["F5", "F7", "Q"])
def test_zero_divisor_raises(field):
    t = QuadTower(field, [1])
    assert t.degenerate_gens == [0]
    u = t.one() + t.root(0)
    assert u * (t.one() - t.root(0)) == t.zero()
    with pytest.raises(NonInvertible):
        u.inverse()


def test_coercion_between_towers():
    a, b = QuadTower(F5, [2]), QuadTower(F5, [3])
    with pytest.raises(FieldMismatch):
        a.root(0) + b.root(0)
    with pytest.raises(FieldMismatch):
        a.root(0) * b.root(0)
    with pytest.raises(FieldMismatch):
        a(b.one())
    # an equal tower built separately mixes freely
    a2 = QuadTower(F5, [2])
    x, y = a.elem([1, 2]), a2.elem([3, 4])
    assert x + y == a.elem([4, 1])
    assert x * y == a.elem([3 + 8 * 2, 4 + 6])
    assert x == a2.elem([1, 2]) and hash(x) == hash(a2.elem([1, 2]))
    assert a2(x) is x
