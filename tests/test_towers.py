"""Multi-quadratic towers F(sqrt(d1), ..., sqrt(dk)): root relations, the
ring axioms and Galois conjugation on seeded elements, inverses, zero
divisors of degenerate towers, and coercion between towers."""

import random
from fractions import Fraction

import pytest

from isogeny_kit.algebras import BiquatAlg, QuatAlg
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


# ---------------------------------------------------------------------------
# the integer table product over F_p and Q against the structure table
# ---------------------------------------------------------------------------

F3 = GF(3)
HALF, M3_5, M2_3, P5_4 = (Fraction(1, 2), Fraction(-3, 5), Fraction(-2, 3),
                          Fraction(5, 4))


def table_algebras():
    """Quaternions, bi-quaternions and towers over F_3, F_7 and Q, the
    rational ones with non-integral symbols."""
    out = []
    for field, s1, s2 in ((F3, (2, 1), (1, 2)), (F7, (3, 5), (6, 3)),
                          (QQ, (HALF, M3_5), (M2_3, P5_4))):
        b, c = QuatAlg(field, *s1), QuatAlg(field, *s2)
        out += [b, BiquatAlg(b, c), QuadTower(field, [*s1])]
    return out


TABLE_ALGEBRAS = table_algebras()
TABLE_IDS = ["%s/%s" % (type(a).__name__, a.ring) for a in TABLE_ALGEBRAS]


def table_samples(alg, rng):
    field = alg.ring

    def coeff():
        if rng.random() < 0.4:
            return 0
        if field.p is None:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 7))
        return rng.randrange(field.p)

    xs = [alg.elem([coeff() for _ in range(alg.dim)]) for _ in range(6)]
    return xs + [alg.zero(), alg.one(), alg.from_scalar(HALF if field.p is None else 2)]


def naive_product(x, y):
    """sum a_i b_j coeff_ij e_target on Scalars, read off table()."""
    alg = x.algebra
    one = alg.ring.one()
    out = [alg.ring.zero()] * alg.dim
    for i, a in enumerate(x.c):
        for j, b in enumerate(y.c):
            target, coeff = alg.table()[i][j]
            out[target] = out[target] + a * b * (one if coeff is None else coeff)
    return out


@pytest.mark.parametrize("alg", TABLE_ALGEBRAS, ids=TABLE_IDS)
def test_int_table_product_matches_table(alg):
    tab = alg.table()
    assert any(f is None for row in tab for _, f in row)
    if alg.ring.p is None:
        assert any(f is not None and f.value.denominator > 1
                   for row in tab for _, f in row)
    xs = table_samples(alg, random.Random(alg.dim * 7 + (alg.ring.p or 0)))
    for x in xs:
        m = x.mult_matrix()
        for y in xs:
            prod = x * y
            assert prod.c == naive_product(x, y)
            assert all(v.field == alg.ring for v in prod.c)
            assert m.apply(y.c) == prod.c
        assert m.rows == [[sum((a * (alg.ring.one() if tab[i][j][1] is None
                                     else tab[i][j][1])
                                for i, a in enumerate(x.c) if tab[i][j][0] == t),
                               alg.ring.zero())
                           for j in range(alg.dim)] for t in range(alg.dim)]
