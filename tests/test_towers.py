"""Multi-quadratic towers F(sqrt(d1), ..., sqrt(dk)): root relations, the
ring axioms and Galois conjugation on seeded elements, inverses, zero
divisors of degenerate towers, and coercion between towers.  The table
core's int product over F_p and Q against the structure table, and over
an etale E (by restriction of scalars) against the product over EQElem
coefficients."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isogeny_kit.algebras import BiquatAlg, EQElem, EtaleQuad, QuatAlg
from isogeny_kit.errors import FieldMismatch, NonInvertible
from isogeny_kit.exactfield import GF, QQ
from isogeny_kit.linalg import Mat
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
    """sum a_i b_j coeff_ij e_target in the coefficient ring, read off table()."""
    alg = x.algebra
    tab = alg.table()
    out = [alg.ring.zero()] * alg.dim
    for i, a in enumerate(x.c):
        for j, b in enumerate(y.c):
            if a.is_zero() or b.is_zero():
                continue
            target, coeff = tab[i][j]
            out[target] = out[target] + a * b * coeff
    return out


@pytest.mark.parametrize("alg", TABLE_ALGEBRAS, ids=TABLE_IDS)
def test_int_table_product_matches_table(alg):
    tab = alg.table()
    if alg.ring.p is None:
        assert any(f.value.denominator > 1 for row in tab for _, f in row)
    xs = table_samples(alg, random.Random(alg.dim * 7 + (alg.ring.p or 0)))
    for x in xs:
        m = x.mult_matrix()
        for y in xs:
            prod = x * y
            assert prod.c == naive_product(x, y)
            assert all(v.field == alg.ring for v in prod.c)
            assert m.apply(y.c) == prod.c
        assert m.rows == [[sum((a * tab[i][j][1]
                                for i, a in enumerate(x.c) if tab[i][j][0] == t),
                               alg.ring.zero())
                           for j in range(alg.dim)] for t in range(alg.dim)]


# ---------------------------------------------------------------------------
# algebras over an etale E: the restriction of scalars to F against the
# product over EQElem coefficients (hypothesis drives the operands)
# ---------------------------------------------------------------------------

def etale_algebras():
    """Quaternions and bi-quaternions over split and field E at F_3, F_7
    and Q: symbols from F (non-integral over Q), and one quaternion
    algebra with a symbol outside F, whose table entries have two targets
    on the F-basis."""
    out = []
    for field, d, s1, s2 in ((F3, 2, (2, 1), (1, 2)), (F7, 3, (3, 5), (6, 3)),
                             (QQ, M2_3, (HALF, M3_5), (M2_3, P5_4))):
        for e in (EtaleQuad(field), EtaleQuad(field, d)):
            b, c = QuatAlg(e, *s1), QuatAlg(e, *s2)
            out += [b, BiquatAlg(b, c),
                    QuatAlg(e, EQElem(e, field(s1[0]), field(1)), s2[1])]
    return out


ETALE_ALGEBRAS = etale_algebras()
ETALE_IDS = ["%s/%s/%s" % (type(a).__name__, a.ring.field,
                           "split" if a.ring.is_split else "field")
             for a in ETALE_ALGEBRAS]


def f_coords(x):
    """The F-coordinates of an element over E: the (x, y) of each coefficient."""
    return [v for z in x.c for v in (z.x, z.y)]


def from_f_coords(alg, values):
    e = alg.ring
    values = [e.field(v) for v in values]
    return alg.Elem(alg, [EQElem(e, x, y) for x, y in zip(values[::2], values[1::2])])


def naive_left_matrix(x):
    """Left multiplication by x on the F-coordinates, one naive product per
    F-basis element e_j u_b."""
    alg, n = x.algebra, 2 * x.algebra.dim
    cols = []
    for k in range(n):
        unit = [0] * n
        unit[k] = 1
        cols.append(f_coords(alg.Elem(alg, naive_product(x, from_f_coords(alg, unit)))))
    return Mat(alg.ring.field, [[col[i] for col in cols] for i in range(n)])


@st.composite
def etale_operand(draw, alg):
    """An element of alg over E: general, zero, a scalar of E, or (split E)
    a zero divisor with every coefficient in the first factor."""
    field, n = alg.ring.field, 2 * alg.dim
    if field.p is None:
        coord = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    else:
        coord = st.integers(0, field.p - 1)
    coords = draw(st.lists(st.one_of(st.just(0), coord), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["general", "general", "zero", "scalar", "divisor"]))
    if kind == "zero":
        return alg.zero()
    if kind == "scalar":
        return alg.from_scalar(EQElem(alg.ring, field(coords[0]), field(coords[1])))
    if kind == "divisor" and alg.ring.is_split:
        coords[1::2] = [0] * alg.dim
    return from_f_coords(alg, coords)


PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("alg", ETALE_ALGEBRAS, ids=ETALE_IDS)
@PROPERTY
@given(data=st.data())
def test_etale_product_matches_eqelem_product(alg, data):
    x = data.draw(etale_operand(alg), label="x")
    y = data.draw(etale_operand(alg), label="y")
    prod = x * y
    assert prod.c == naive_product(x, y)
    m = x.mult_matrix()
    assert m.ring == alg.ring.field and m.nrows == m.ncols == 2 * alg.dim
    assert m == naive_left_matrix(x)
    assert m.apply(f_coords(y)) == f_coords(prod)


@pytest.mark.parametrize("alg", ETALE_ALGEBRAS, ids=ETALE_IDS)
@PROPERTY
@given(data=st.data())
def test_etale_inverse_both_sides(alg, data):
    x = data.draw(etale_operand(alg), label="x")
    one = alg.one().c
    if naive_left_matrix(x).rank() < 2 * alg.dim:
        with pytest.raises(NonInvertible):
            x.inverse()
        return
    inv = x.inverse()
    assert naive_product(x, inv) == one and naive_product(inv, x) == one


@pytest.mark.parametrize("field", [F3, F7, QQ], ids=["F3", "F7", "Q"])
def test_split_etale_zero_divisor_raises(field):
    e = EtaleQuad(field)
    for alg in (QuatAlg(e, 2, 1), BiquatAlg(QuatAlg(e, 2, 1), QuatAlg(e, 1, 2))):
        first = alg.elem([EQElem(e, field(1), field(0))] * alg.dim)
        second = alg.from_scalar(EQElem(e, field(0), field(1)))
        assert (first * second).is_zero()
        for x in (first, second, alg.zero()):
            with pytest.raises(NonInvertible):
                x.inverse()


def test_products_off_f_and_e_raise_type_error():
    """A quaternion algebra over a tower has no int coordinates: its first
    arithmetic operation (a sum, difference, negation, scaling, product,
    left-multiplication matrix or table inverse) names the ring."""
    tower = QuadTower(F5, [2])
    b = QuatAlg(tower, 2, 3)
    a = BiquatAlg(b, b)
    x = b.elem([1, 1, 0, 0])
    y = a.elem([1] + [0] * 3 + [1] + [0] * 11)
    ops = [op for z in (x, y) for op in (
        lambda z=z: z + z, lambda z=z: z - z, lambda z=z: -z,
        lambda z=z: z.scale(2), lambda z=z: z * z, z.mult_matrix, z.inverse)]
    for op in ops:
        with pytest.raises(TypeError, match=r"QuadTower\(F_5, \[2\]\)"):
            op()


def test_equal_descriptors_share_one_restriction():
    """Equal but distinct descriptors over E look up one int table."""
    def biquat():
        e = EtaleQuad(QQ, M2_3)
        return BiquatAlg(QuatAlg(e, HALF, M3_5), QuatAlg(e, M2_3, P5_4))

    a1, a2 = biquat(), biquat()
    assert a1 is not a2 and a1 == a2
    assert a1._restriction() is a2._restriction()
    x, y = a1.basis_elem(1, 2), a2.basis_elem(2, 1)
    assert (x * y).c == (a2(x) * y).c


# ---------------------------------------------------------------------------
# ints as the state: a result computed on ints against its copy built from
# the coefficients it shows (hypothesis drives the operands)
# ---------------------------------------------------------------------------

def int_state_algebras():
    """Quaternions and bi-quaternions over F and over split and field E,
    at F_3, F_7 and Q (non-integral symbols over Q)."""
    out = []
    for field, d, s1, s2 in ((F3, 2, (2, 1), (1, 2)), (F7, 3, (3, 5), (6, 3)),
                             (QQ, M2_3, (HALF, M3_5), (M2_3, P5_4))):
        for ring in (field, EtaleQuad(field), EtaleQuad(field, d)):
            b = QuatAlg(ring, *s1)
            out += [b, BiquatAlg(b, QuatAlg(ring, *s2))]
    return out


INT_STATE_ALGEBRAS = int_state_algebras()
INT_STATE_IDS = ["%s/%s" % (type(a).__name__, a.ring) for a in INT_STATE_ALGEBRAS]


def base_field(alg):
    return getattr(alg.ring, "field", alg.ring)


def coordinate(field):
    if field.p is None:
        return st.fractions(min_value=-6, max_value=6, max_denominator=7)
    return st.integers(0, field.p - 1)


@st.composite
def table_operand(draw, alg):
    """An element of alg, general, zero or a ring scalar, built from its
    coefficients or (drawn) as the int-born result of a sum."""
    field = base_field(alg)
    r = 1 if alg.ring is field else 2
    coords = draw(st.lists(st.one_of(st.just(0), coordinate(field)),
                           min_size=r * alg.dim, max_size=r * alg.dim))
    kind = draw(st.sampled_from(["general", "general", "zero", "scalar"]))
    if kind == "zero":
        coords = [0] * len(coords)
    elif kind == "scalar":
        coords[r:] = [0] * (len(coords) - r)
    x = alg.elem(coords) if r == 1 else from_f_coords(alg, coords)
    return x + alg.zero() if draw(st.booleans()) else x


def e_scalar(draw, alg):
    e, field = alg.ring, base_field(alg)
    return EQElem(e, field(draw(coordinate(field))), field(draw(coordinate(field))))


def assert_like_scalar_born(z):
    """z equals, and hashes like, its copy built from its coefficients."""
    w = z.algebra.Elem(z.algebra, list(z.c))
    assert z == w and w == z and hash(z) == hash(w)
    assert w.c == z.c and (w + w).c == (z + z).c


@pytest.mark.parametrize("alg", INT_STATE_ALGEBRAS, ids=INT_STATE_IDS)
@PROPERTY
@given(data=st.data())
def test_int_born_results_match_scalar_born_copies(alg, data):
    x = data.draw(table_operand(alg), label="x")
    y = data.draw(table_operand(alg), label="y")
    field = base_field(alg)
    s = field(data.draw(coordinate(field), label="s"))
    signs = [1, -1, -1, -1] if alg.dim == 4 else [
        a * b for a in (1, -1, -1, -1) for b in (1, -1, -1, -1)]
    bar = x.bar()
    assert bar.c == [v if sign > 0 else -v for v, sign in zip(x.c, signs)]
    f_scaled = [x.scale(s), x * s, s * x, x.scale(s.value)]
    assert all(z.c == [v * s for v in x.c] for z in f_scaled)
    results = [x * y, x + y, x - y, -x, bar, *f_scaled]
    if alg.ring is not field:
        z = e_scalar(data.draw, alg)
        e_scaled = [x.scale(z), x * z, z * x]
        assert all(w.c == [v * z for v in x.c] for w in e_scaled)
        results += e_scaled
    try:
        inv = x.inverse()
    except NonInvertible:
        assert x.mult_matrix().rank() < len(x._ints()[0])
    else:
        assert x * inv == alg.one()
        results.append(inv)
    for z in results:
        assert_like_scalar_born(z)


Q_ALGEBRAS = [a for a in INT_STATE_ALGEBRAS if base_field(a) == QQ]


@pytest.mark.parametrize("alg", Q_ALGEBRAS,
                         ids=["%s/%s" % (type(a).__name__, a.ring) for a in Q_ALGEBRAS])
def test_cancelling_denominators_compare_equal(alg):
    rng = random.Random(alg.dim)
    thirds = alg.elem([Fraction(rng.randint(-5, 5), 3) for _ in range(alg.dim)])
    sixths = alg.elem([Fraction(rng.randint(-5, 5), 6) for _ in range(alg.dim)])
    for x in (thirds, sixths, thirds * sixths):
        back = x.scale(Fraction(7, 6)).scale(Fraction(6, 7))
        assert back == x and hash(back) == hash(x)
        assert (x + sixths) - sixths == x
        assert x.scale(6) - x.scale(5) == x
        assert_like_scalar_born((x + sixths) - sixths)
    half = alg.from_scalar(HALF)
    assert half + half == alg.one() and (half + half).c == alg.one().c
    assert (sixths.scale(6) - sixths.scale(6)).is_zero()


@pytest.mark.parametrize("alg", INT_STATE_ALGEBRAS, ids=INT_STATE_IDS)
@PROPERTY
@given(data=st.data())
def test_zero_and_scalar_tests_are_coefficientwise(alg, data):
    x = data.draw(table_operand(alg), label="x")
    y = data.draw(table_operand(alg), label="y")
    for z in (x, y, x * y, x - x, x + y - y, x.bar() + x):
        assert z.is_zero() == all(a.is_zero() for a in z.c)
        assert z.is_scalar() == all(a.is_zero() for a in z.c[1:])
