"""Multi-quadratic towers F(sqrt(d1), ..., sqrt(dk)): root relations, the
ring axioms and Galois conjugation on seeded elements, inverses, zero
divisors of degenerate towers, and coercion between towers.  The table
core's int product over F_p and Q against the structure table.  The
etale E's own operations, and the product over E (by restriction of
scalars), against an oracle for E in sympy polynomial arithmetic mod
t^2 - d that shares no code with the library."""

import copy
import functools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, given, settings, strategies as st

from isogeny_kit.algebras import BiquatAlg, EtaleQuad, QuatAlg
from isogeny_kit.errors import DimensionMismatch, FieldMismatch, NonInvertible
from isogeny_kit.exactfield import GF, QQ
from isogeny_kit.linalg import Mat
from isogeny_kit.towers import QuadTower

from tests_helpers import map_coeffs

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


PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# an oracle for E that shares no code with the library: sympy polynomials
# mod t^2 - d over GF(p) or QQ
# ---------------------------------------------------------------------------

T = sympy.Symbol("t")


def rational(v):
    v = Fraction(v)
    return sympy.Rational(v.numerator, v.denominator)


class EOracle:
    """E = F[t] / (t^2 - d) in sympy `Poly` arithmetic over GF(p) or QQ,
    with d = 1 for split E: c0 + c1 g is the Poly c0 + c1 t, and g = t is
    (1, -1) in F x F (the values at t = 1 and t = -1)."""

    def __init__(self, field, d):
        self.p, self.split = field.p, d == 1
        self.domain = sympy.GF(field.p) if field.p else sympy.QQ
        self.modulus = sympy.Poly(T ** 2 - rational(d), T, domain=self.domain)

    def __call__(self, c0, c1):
        return sympy.Poly.from_list([rational(c1), rational(c0)], T, domain=self.domain)

    def of(self, z):
        """An element of E read off its (1, g) coordinates."""
        return self(*[v.value for v in z.coords()])

    def value(self, c):
        c = sympy.Rational(c)
        return int(c) % self.p if self.p else Fraction(int(c.p), int(c.q))

    def coords(self, poly):
        """The (1, g) coordinates of poly mod t^2 - d: ints mod p or Fractions."""
        r = poly.rem(self.modulus)
        return [self.value(r.coeff_monomial(m)) for m in (1, T)]

    def conj(self, poly):
        c0, c1 = self.coords(poly)
        return self(c0, -c1)

    def views(self, poly):
        """(x, y): the values at t = 1, -1 when split, else the coefficients."""
        if self.split:
            return [self.value(poly.eval(1)), self.value(poly.eval(-1))]
        return self.coords(poly)


def coord_values(z):
    """The (1, g) coordinates of an element of E as plain values."""
    return [v.value for v in z.coords()]


# ---------------------------------------------------------------------------
# E's own operations against the oracle (hypothesis drives the operands)
# ---------------------------------------------------------------------------

# (field, d, split): split E by default and from a square d, and field E
ETALE_RINGS = [(F3, None, True), (F3, 2, False), (F7, None, True), (F7, 2, True),
               (F7, 3, False), (QQ, None, True), (QQ, 4, True), (QQ, M2_3, False)]


@st.composite
def etale_coords(draw, e):
    """(1, g) coordinates: general, zero, or (split E) a zero divisor."""
    coords = draw(st.lists(st.one_of(st.just(0), coordinate(e.field)),
                           min_size=2, max_size=2))
    kind = draw(st.sampled_from(["general", "general", "zero", "divisor"]))
    if kind == "zero":
        return [0, 0]
    if kind == "divisor" and e.is_split:
        return [coords[0], draw(st.sampled_from([1, -1])) * coords[0]]
    return coords


@pytest.mark.parametrize("field,d,split", ETALE_RINGS,
                         ids=["%s/%s" % (f, d) for f, d, _ in ETALE_RINGS])
@PROPERTY
@given(data=st.data())
def test_etale_ops_match_sympy_oracle(field, d, split, data):
    e = EtaleQuad(field, d)
    assert e.is_split == split
    ora = EOracle(field, 1 if split else d)
    u = data.draw(etale_coords(e), label="u")
    v = data.draw(etale_coords(e), label="v")
    x, y = e.elem(u), e.elem(v)
    a, b = ora(*u), ora(*v)
    assert coord_values(x) == ora.coords(a)
    assert coord_values(x * y) == ora.coords(a * b)
    assert coord_values(x + y) == ora.coords(a + b)
    assert coord_values(x - y) == ora.coords(a - b)
    assert coord_values(x.conj()) == ora.coords(ora.conj(a))
    norm = ora.coords(a * ora.conj(a))
    assert norm[1] == 0 and x.norm().value == norm[0]
    assert (x * y).norm() == x.norm() * y.norm()
    assert x.trace().value == ora.coords(a + ora.conj(a))[0]
    assert [x.x.value, x.y.value] == ora.views(a)
    assert e.from_xy(x.x, x.y) == x
    try:
        inv = a.invert(ora.modulus)
    except sympy.polys.polyerrors.NotInvertible:
        with pytest.raises(NonInvertible):
            x.inverse()
    else:
        assert coord_values(x.inverse()) == ora.coords(inv)
        assert coord_values(y / x) == ora.coords(b * inv)


# ---------------------------------------------------------------------------
# algebras over an etale E: the restriction of scalars to F against the
# product over E coefficients in the oracle (hypothesis drives the operands)
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
                    QuatAlg(e, e.from_xy(field(s1[0]), field(1)), s2[1])]
    return out


ETALE_ALGEBRAS = etale_algebras()
ETALE_IDS = ["%s/%s/%s" % (type(a).__name__, a.ring.field,
                           "split" if a.ring.is_split else "field")
             for a in ETALE_ALGEBRAS]


def f_coords(x):
    """The F-coordinates of an element over E: the (1, g) coordinates of
    each coefficient."""
    return [v for z in x.c for v in z.coords()]


def from_f_coords(alg, values):
    e = alg.ring
    return alg.Elem(alg, [e.elem(pair) for pair in zip(values[::2], values[1::2])])


@functools.lru_cache(maxsize=None)
def oracle_table(alg):
    """The oracle for alg's E, and alg's table() with its coefficients in it."""
    ora = EOracle(alg.ring.field, alg.ring.d.value)
    return ora, [[(t, ora.of(k)) for t, k in row] for row in alg.table()]


def oracle_product(x, y):
    """sum a_i b_j coeff_ij e_target read off table(), with the E-coefficient
    arithmetic in the oracle: the (1, g) coordinates of each coefficient."""
    ora, tab = oracle_table(x.algebra)
    out = [ora(0, 0)] * x.algebra.dim
    ys = [ora.of(b) for b in y.c]
    for i, a in enumerate(x.c):
        a = ora.of(a)
        for j, b in enumerate(ys):
            if not (a.is_zero or b.is_zero):
                target, coeff = tab[i][j]
                out[target] = out[target] + a * b * coeff
    return [ora.coords(v) for v in out]


def naive_left_matrix(x):
    """Left multiplication by x on the F-coordinates in the oracle: the
    column of the F-basis element e_j u_b is sum_i a_i u_b coeff_ij e_target."""
    alg, n = x.algebra, 2 * x.algebra.dim
    ora, tab = oracle_table(alg)
    xs = [ora.of(a) for a in x.c]
    cols = []
    for j in range(alg.dim):
        for u in (ora(1, 0), ora(0, 1)):
            out = [ora(0, 0)] * alg.dim
            for i, a in enumerate(xs):
                target, coeff = tab[i][j]
                out[target] = out[target] + a * u * coeff
            cols.append([v for w in out for v in ora.coords(w)])
    field = alg.ring.field
    return Mat(field, [[field(col[i]) for col in cols] for i in range(n)])


@st.composite
def etale_operand(draw, alg):
    """An element of alg over E: general, zero, a scalar of E, or (split E)
    a zero divisor with every coefficient in the first factor."""
    field, n = alg.ring.field, 2 * alg.dim
    coords = draw(st.lists(st.one_of(st.just(0), coordinate(field)),
                           min_size=n, max_size=n))
    kind = draw(st.sampled_from(["general", "general", "zero", "scalar", "divisor"]))
    if kind == "zero":
        return alg.zero()
    if kind == "scalar":
        return alg.from_scalar(alg.ring.from_xy(field(coords[0]), field(coords[1])))
    if kind == "divisor" and alg.ring.is_split:
        coords[1::2] = coords[0::2]   # y = 0 in each coefficient
    return from_f_coords(alg, coords)


@pytest.mark.parametrize("alg", ETALE_ALGEBRAS, ids=ETALE_IDS)
@PROPERTY
@given(data=st.data())
def test_etale_product_matches_eqelem_product(alg, data):
    x = data.draw(etale_operand(alg), label="x")
    y = data.draw(etale_operand(alg), label="y")
    prod = x * y
    assert [coord_values(z) for z in prod.c] == oracle_product(x, y)
    m = x.mult_matrix()
    assert m.ring == alg.ring.field and m.nrows == m.ncols == 2 * alg.dim
    assert m == naive_left_matrix(x)
    assert m.apply(f_coords(y)) == f_coords(prod)


@pytest.mark.parametrize("alg", ETALE_ALGEBRAS, ids=ETALE_IDS)
@PROPERTY
@given(data=st.data())
def test_etale_inverse_both_sides(alg, data):
    x = data.draw(etale_operand(alg), label="x")
    one = [[1, 0]] + [[0, 0]] * (alg.dim - 1)
    if naive_left_matrix(x).rank() < 2 * alg.dim:
        with pytest.raises(NonInvertible):
            x.inverse()
        return
    inv = x.inverse()
    assert oracle_product(x, inv) == one and oracle_product(inv, x) == one


@pytest.mark.parametrize("field", [F3, F7, QQ], ids=["F3", "F7", "Q"])
def test_split_etale_zero_divisor_raises(field):
    e = EtaleQuad(field)
    for alg in (QuatAlg(e, 2, 1), BiquatAlg(QuatAlg(e, 2, 1), QuatAlg(e, 1, 2))):
        first = alg.elem([e.from_xy(field(1), field(0))] * alg.dim)
        second = alg.from_scalar(e.from_xy(field(0), field(1)))
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
    return e.from_xy(field(draw(coordinate(field))), field(draw(coordinate(field))))


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


# ---------------------------------------------------------------------------
# the rho-twist on the table core: rho on the ints against the
# coefficientwise conjugation, base change to E, F-scalars over E and the
# twisted multiplier (hypothesis drives the operands)
# ---------------------------------------------------------------------------

def base_changes():
    """(A over F, E): over F_5 with the non-split E = F_5(sqrt 2), over Q
    with E = Q(sqrt(-2/3)) and non-integral symbols, and over F_7 with the
    split E = F_7 x F_7."""
    out = []
    for field, d, s1, s2 in ((F5, 2, (2, -1), (1, 2)),
                             (QQ, M2_3, (HALF, M3_5), (M2_3, P5_4)),
                             (F7, None, (3, 5), (6, 3))):
        b = QuatAlg(field, *s1)
        out += [(b, EtaleQuad(field, d)), (BiquatAlg(b, QuatAlg(field, *s2)),
                                           EtaleQuad(field, d))]
    return out


BASE_CHANGES = base_changes()
BASE_CHANGE_IDS = ["%s/%s" % (type(a).__name__, e) for a, e in BASE_CHANGES]


@pytest.mark.parametrize("alg,e", BASE_CHANGES, ids=BASE_CHANGE_IDS)
@PROPERTY
@given(data=st.data())
def test_rho_is_an_involutive_automorphism(alg, e, data):
    ae = alg.over(e)
    x = data.draw(table_operand(ae), label="x")
    y = data.draw(table_operand(ae), label="y")
    rx = x.rho()
    oracle = map_coeffs(x, lambda c: c.conj())
    assert rx == oracle and rx.c == oracle.c
    assert rx.rho() == x
    assert (x * y).rho() == rx * y.rho()
    assert (x + y).rho() == rx + y.rho()
    assert ae.one().rho() == ae.one()
    z = e_scalar(data.draw, ae)
    assert z.rho() == z.conj()
    u = data.draw(table_operand(alg), label="u")
    with pytest.raises(TypeError, match="not on"):
        u.rho()


@pytest.mark.parametrize("alg,e", BASE_CHANGES, ids=BASE_CHANGE_IDS)
@PROPERTY
@given(data=st.data())
def test_over_is_the_coefficientwise_base_change(alg, e, data):
    ae = alg.over(e)
    assert ae.ring == e and ae.dim == alg.dim
    x = data.draw(table_operand(alg), label="x")
    y = data.draw(table_operand(alg), label="y")
    xe = x.over(ae)
    oracle = map_coeffs(x, e.from_scalar, ae)
    assert xe == oracle and xe.c == oracle.c
    assert (x * y).over(ae) == xe * y.over(ae)
    assert xe.rho() == xe
    w = data.draw(table_operand(ae), label="w")
    s = e.field(data.draw(coordinate(e.field), label="s"))
    assert w.scale(s) == w.scale(e.from_scalar(s))


@functools.lru_cache(maxsize=None)
def twisted_space(alg, e):
    from isogeny_kit.spin_six import TwistedSpace
    # every Albert coordinate nonzero, so that w = t Q compares six ratios
    return TwistedSpace(alg, e, alg.aminus([1, 1, 1], [1, 1, 1]))


@pytest.mark.parametrize("alg,e", [c for c in BASE_CHANGES if c[0].dim == 16],
                         ids=[i for i, c in zip(BASE_CHANGE_IDS, BASE_CHANGES)
                              if c[0].dim == 16])
@PROPERTY
@given(data=st.data())
def test_twisted_multiplier(alg, e, data):
    ts = twisted_space(alg, e)
    ae = ts.AE
    assert ts.multiplier(ae.zero()) == e.field(0)
    c = e.field(data.draw(coordinate(e.field), label="c"))
    assert ts.multiplier(ae.from_scalar(c)) == c * c
    # g over E, and g from A (whose w = g Q bar(g) lies in A^-)
    for g in (data.draw(table_operand(ae), label="g"),
              data.draw(table_operand(alg), label="x").over(ae)):
        w = g * ts.QE * g.bar().rho()
        t = ts.multiplier(g)
        if not w.in_minus_space():
            assert t is None
        assert t is None or w == ts.QE.scale(t)
    # 1 + g-coordinate on b_1 (x) 1 sends Q off A^-
    off = ae.one() + ae.basis_elem(1, 0).scale(e.gen0())
    assert not (off * ts.QE * off.bar().rho()).in_minus_space()
    assert ts.multiplier(off) is None


# ---------------------------------------------------------------------------
# the lean core (sparse rows, same-descriptor fast paths, inline reduction)
# against the nested-loop product it replaced, on F-coordinate values, over
# F_5 and Q, a split and two non-split E, and A and A_E over them
# ---------------------------------------------------------------------------

def lean_core_algebras():
    f5, q = (QuatAlg(F5, 2, 3), QuatAlg(F5, 3, 2)), (QuatAlg(QQ, HALF, M3_5),
                                                      QuatAlg(QQ, M2_3, P5_4))
    split, e5, eq = EtaleQuad(F7), EtaleQuad(F5, 2), EtaleQuad(QQ, -1)
    a5, aq, a7 = BiquatAlg(*f5), BiquatAlg(*q), BiquatAlg(QuatAlg(F7, 3, 5),
                                                          QuatAlg(F7, 6, 3))
    return [split, e5, eq, f5[0], a5, aq, a5.over(e5), a7.over(split), aq.over(eq)]


LEAN_ALGEBRAS = lean_core_algebras()
LEAN_IDS = ["%s/%s" % (type(a).__name__, a.ring) for a in LEAN_ALGEBRAS]


def f_values(z):
    """The F-coordinates of z as values: residues mod p, or Fractions."""
    v, d = z._ints()
    p = base_field(z.algebra).p
    return [a % p for a in v] if p else [Fraction(a, d) for a in v]


def reduced(alg, values):
    p = base_field(alg).p
    return [v % p for v in values] if p else list(values)


def nested_loop_product(x, y):
    """The product as the table core formed it before its rows were made
    sparse: every layer of a dense table of (target, n), each nonzero left
    coordinate against each nonzero right one."""
    res = x.algebra._restriction()
    size = len(res.rows)
    layers = []
    for i, row in enumerate(res.rows):
        for j, t, n in row:
            tab = next((tab for tab in layers if tab[i][j] is None), None)
            if tab is None:
                tab = [[None] * size for _ in range(size)]
                layers.append(tab)
            tab[i][j] = (t, n)
    xs, ys = f_values(x), f_values(y)
    out = [0] * size
    right = [(j, b) for j, b in enumerate(ys) if b]
    for tab in layers:
        for a, row in zip(xs, tab):
            if a:
                for j, b in right:
                    e = row[j]
                    if e:
                        t, n = e
                        out[t] += a * b * n
    return reduced(x.algebra, [v if base_field(x.algebra).p else Fraction(v, res.den)
                               for v in out])


@pytest.mark.parametrize("alg", LEAN_ALGEBRAS, ids=LEAN_IDS)
@PROPERTY
@given(data=st.data())
def test_lean_core_matches_nested_loop_reference(alg, data):
    x = data.draw(table_operand(alg), label="x")
    y = data.draw(table_operand(alg), label="y")
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=alg.dim,
                               max_size=alg.dim), label="signs")
    xv, yv = f_values(x), f_values(y)
    r = len(xv) // alg.dim
    # y over an equal but distinct descriptor takes the coercing path
    twin = copy.copy(alg)
    y_twin = alg.Elem._of(twin, *y._ints())
    for other in (y, y_twin):
        assert f_values(x * other) == nested_loop_product(x, y)
        assert f_values(x + other) == reduced(alg, [a + b for a, b in zip(xv, yv)])
        assert f_values(x - other) == reduced(alg, [a - b for a, b in zip(xv, yv)])
    assert f_values(-x) == reduced(alg, [-a for a in xv])
    assert f_values(x._signed(signs)) == reduced(
        alg, [a * signs[i // r] for i, a in enumerate(xv)])
    for z in (x * y, x + y, x - y, -x, x._signed(signs), x * y_twin):
        assert z.algebra is alg
        assert_like_scalar_born(z)


@pytest.mark.parametrize("field", [GF(5), QQ], ids=["F5", "Q"])
def test_elem_of_the_wrong_length_raises(field):
    """One coefficient per basis element; any other count, such as six
    for a quaternion or two for a bi-quaternion, is a DimensionMismatch."""
    b = QuatAlg(field, 2, 3)
    for algebra in (EtaleQuad(field, 2), b, BiquatAlg(b, QuatAlg(field, 1, 2)),
                    QuadTower(field, [2, 3])):
        n = algebra.dim
        for k in (0, 2, n - 1, n + 2):
            if k != n:
                with pytest.raises(DimensionMismatch):
                    algebra.elem(list(range(1, k + 1)))
        assert algebra.elem(list(range(n))).c == [field(i) for i in range(n)]
    with pytest.raises(DimensionMismatch):
        QuatAlg(GF(5), 2, 3).elem([1, 2, 3, 4, 0, 0])
