"""QuadSpace's int form, reflection products and equality against
Scalar-loop oracles.

Each oracle below is the Scalar arithmetic the library did before its
spaces held their forms as ints: u^t G v summed term by term, complements
projected with Scalar products, reflections applied column by column,
the same Gauss pivoting and the same isotropy searches; and Scalar
equality as it tested its operand's type before.  Spaces are drawn over F_3, F_5 (and for
reflection products F_7) and Q, diagonal and dense (P^t D P), and over Q
with entries over large coprime denominators.  Results must be equal,
vector for vector, and the named errors must stay the same, also under
`python -O`.
"""

import itertools
import math
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isogeny_kit import quadforms
from isogeny_kit.errors import (
    DegenerateSpace,
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    IsotropicMirror,
    SearchBudgetExceeded,
)
from isogeny_kit.exactfield import GF, QQ, FieldDesc, Scalar, sqrt_exact, square_class
from isogeny_kit.linalg import Mat, independent_subset
from isogeny_kit.quadforms import (
    Isometry,
    QuadSpace,
    _reflect_matrix_left,
    compose_reflections,
    complement,
    diagonalize,
    find_isotropic,
    reflect,
    spinor_norm,
)
from isogeny_kit.suites import RunConfig, run_suite
from isogeny_kit.towers import QuadTower
from tests_helpers import run_optimized

# (field, the denominators of Q entries)
BIG = (10007, 10009, 10037, 65537)
KINDS = [(GF(3), None), (GF(5), None), (QQ, (1,)), (QQ, (1, 2, 3, 5)), (QQ, BIG)]
KIND_IDS = ["F3", "F5", "Q-int", "Q-small-den", "Q-large-den"]
SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def entry(field, rng, dens):
    if field.p:
        return field(rng.randrange(field.p))
    height = 40 if dens is BIG else 3
    return field(Fraction(rng.randint(-height, height), rng.choice(dens)))


def unit(field, rng, dens):
    while True:
        x = entry(field, rng, dens)
        if not x.is_zero():
            return x


def draw_space(field, rng, n, dense, dens):
    """diag(d), or P^t diag(d) P for a random invertible P."""
    space = QuadSpace.diagonal(field, [unit(field, rng, dens) for _ in range(n)])
    if not dense:
        return space
    while True:
        p = Mat(field, [[entry(field, rng, dens) for _ in range(n)] for _ in range(n)])
        if not p.det().is_zero():
            return QuadSpace(field, p.T * space.gram * p)


def draw_vector(space, rng, dens):
    return [entry(space.field, rng, dens) for _ in range(space.dim)]


# -- the Scalar-loop oracles ------------------------------------------------

def o_pairing(space, u, v):
    acc = space.field.zero()
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            acc = acc + a * space.gram[i, j] * b
    return acc


def o_complement(space, v, basis=None):
    if basis is None:
        basis = [space.basis_vector(i) for i in range(space.dim)]
    c = o_pairing(space, v, v)
    projected = [[x - o_pairing(space, b, v) / c * y for x, y in zip(b, v)] for b in basis]
    return independent_subset(space.field, projected, len(basis) - 1)


def o_reflect_left(space, v, m):
    """R_v M column by column: x -> x - (2 <x,v> / <v,v>) v."""
    c = o_pairing(space, v, v)
    cols = []
    for x in map(m.col, range(m.ncols)):
        f = space.field(2) * o_pairing(space, x, v) / c
        cols.append([a - f * b for a, b in zip(x, v)])
    return Mat(space.field, cols).T


def o_diagonalize(space):
    basis = [space.basis_vector(i) for i in range(space.dim)]
    out, diag = [], []
    for _ in range(space.dim):
        sums = ([a + b for a, b in zip(u, w)] for u, w in itertools.combinations(basis, 2))
        v = next(w for w in itertools.chain(basis, sums)
                 if not o_pairing(space, w, w).is_zero())
        out.append(v)
        diag.append(o_pairing(space, v, v))
        basis = o_complement(space, v, basis)
    return Mat(space.field, out).T, diag


def o_find_isotropic(space, budget):
    field, n = space.field, space.dim
    if n == 1:
        return None
    p_mat, diag = o_diagonalize(space)
    if n == 2:
        d0, d1 = diag
        if field.p is not None:
            r = sqrt_exact(-d0 / d1)
            return None if r is None else p_mat.apply([field(1), r])
        r = sqrt_exact(-d1 / d0)
        return None if r is None else p_mat.apply([r, field(1)])
    if field.p is not None:
        for a, b in itertools.product(range(field.p), repeat=2):
            val = -(diag[0] * field(a) * field(a) + diag[1] * field(b) * field(b))
            c = sqrt_exact(val / diag[2])
            if c is None or (a == 0 and b == 0 and c.is_zero()):
                continue
            return p_mat.apply([field(a), field(b), c] + [field(0)] * (n - 3))
        return None
    if len({e.value > 0 for e in diag}) == 1:
        return None

    def value(v):
        return sum((e * x * x for e, x in zip(diag, v)), field.zero())
    grid = range(-budget, budget + 1)
    candidates = []
    for size in (2, 3):
        for support in itertools.combinations(range(n), size):
            for vals in itertools.product(grid, repeat=size):
                v = [field(0)] * n
                for i, c in zip(support, vals):
                    v[i] = field(c)
                candidates.append(v)
    if n <= 4:
        candidates += [[field(c) for c in cs] for cs in itertools.product(grid, repeat=n)]
    for v in candidates:
        if any(not x.is_zero() for x in v) and value(v).is_zero():
            return p_mat.apply(v)
    raise SearchBudgetExceeded("no isotropic vector found within budget")


def o_restrict(space, basis):
    gram = Mat(space.field, [[o_pairing(space, a, b) for b in basis] for a in basis])
    return "DegenerateSpace" if gram.det().is_zero() else gram


def outcome(f, *args):
    try:
        return f(*args)
    except (SearchBudgetExceeded, DegenerateSpace) as exc:
        return type(exc).__name__


# -- the properties -----------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@SETTINGS
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 5), dense=st.booleans())
def test_pairing_and_vnorm_match_the_scalar_loop(kind, seed, n, dense):
    field, dens = kind
    rng = random.Random(seed)
    space = draw_space(field, rng, n, dense, dens)
    assert (space.diag is not None) == all(
        space.gram[i, j].is_zero() for i in range(n) for j in range(n) if i != j)
    for _ in range(4):
        u, v = draw_vector(space, rng, dens), draw_vector(space, rng, dens)
        assert space.pairing(u, v) == o_pairing(space, u, v)
        assert space.vnorm(v) == o_pairing(space, v, v)
        # the wrapped values are canonical: reduced mod p, or normalised
        value = space.pairing(u, v).value
        assert (0 <= value < field.p) if field.p else isinstance(value, Fraction)


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@SETTINGS
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 5), dense=st.booleans())
def test_restrict_and_complement_match_the_scalar_loop(kind, seed, n, dense):
    field, dens = kind
    rng = random.Random(seed)
    space = draw_space(field, rng, n, dense, dens)
    v = draw_vector(space, rng, dens)
    if o_pairing(space, v, v).is_zero():
        return
    k = rng.randrange(n) + 1
    span = [v] + [draw_vector(space, rng, dens) for _ in range(k - 1)]
    for basis in (None, span):
        try:
            want = o_complement(space, v, basis)
        except DegenerateSpace:
            with pytest.raises(DegenerateSpace):
                complement(space, v, basis)
            continue
        assert complement(space, v, basis) == want
        if want:
            assert outcome(lambda: space.restrict(want).gram) == o_restrict(space, want)
    basis = [draw_vector(space, rng, dens) for _ in range(rng.randrange(1, n + 1))]
    assert outcome(lambda: space.restrict(basis).gram) == o_restrict(space, basis)


def mixed_row(field, rng, n):
    """A row over F_p, or over Q with a different denominator in each
    entry (some large, some 1) and some zeros."""
    if field.p:
        return [field(rng.randrange(field.p)) for _ in range(n)]
    return [field(0) if rng.random() < 0.2 else
            field(Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 7) + BIG)))
            for _ in range(n)]


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@SETTINGS
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 5), dense=st.booleans())
def test_complement_and_reflect_on_mixed_denominators_match_the_scalar_loop(
        kind, seed, n, dense):
    field, dens = kind
    rng = random.Random(seed)
    space = draw_space(field, rng, n, dense, dens)
    v = mixed_row(field, rng, n)
    m = Mat(field, [mixed_row(field, rng, n) for _ in range(n)])
    basis = [mixed_row(field, rng, n) for _ in range(rng.randrange(n + 1))]
    if o_pairing(space, v, v).is_zero():
        with pytest.raises(IsotropicMirror):
            _reflect_matrix_left(space, v, m)
        if basis:
            with pytest.raises(DivisionByZero):
                complement(space, v, basis)
        return
    got = _reflect_matrix_left(space, v, m)
    assert got == o_reflect_left(space, v, m)
    assert all(type(e.value) is (int if field.p else Fraction) for r in got.rows for e in r)
    span = [v] + basis
    try:
        want = o_complement(space, v, span)
    except DegenerateSpace:
        with pytest.raises(DegenerateSpace):
            complement(space, v, span)
        return
    assert complement(space, v, span) == want


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@SETTINGS
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 5), dense=st.booleans())
def test_diagonalize_and_find_isotropic_match_the_scalar_loop(kind, seed, n, dense):
    field, dens = kind
    rng = random.Random(seed)
    space = draw_space(field, rng, n, dense, dens)
    p_mat, diag = diagonalize(space)
    assert (p_mat, diag) == o_diagonalize(space)
    budget = 2 if field.p is None else 10
    assert outcome(find_isotropic, space, budget) == outcome(o_find_isotropic, space, budget)


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@SETTINGS
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 4), dense=st.booleans())
def test_is_valid_and_reflections_match_the_scalar_loop(kind, seed, n, dense):
    field, dens = kind
    rng = random.Random(seed)
    space = draw_space(field, rng, n, dense, dens)
    mirrors = [v for v in (draw_vector(space, rng, dens) for _ in range(3))
               if not o_pairing(space, v, v).is_zero()]
    t = compose_reflections(space, mirrors)
    m = t.matrix
    for v in mirrors:
        # R_v x = x - 2 <x, v> / <v, v> v on each basis vector
        r = reflect(space, v).matrix
        for i, x in enumerate(map(space.basis_vector, range(n))):
            f = field(2) * o_pairing(space, x, v) / o_pairing(space, v, v)
            assert r.col(i) == [a - f * b for a, b in zip(x, v)]
    bent = Mat(field, [[e + (field(1) if (i, j) == (0, n - 1) else field(0))
                        for j, e in enumerate(row)] for i, row in enumerate(m.rows)])
    for mat in (m, bent):
        assert Isometry(space, mat, check=False).is_valid() == (
            mat.T * space.gram * mat == space.gram)
    if dens is not BIG:     # such norms nearly always outrun trial division
        try:
            want = square_class(field(1))
            for v in mirrors:
                want = want * square_class(o_pairing(space, v, v))
            got = spinor_norm(t)
        except ValueError:      # squarefree_part's trial-division bound
            return
        assert got == want


def test_named_errors_are_unchanged():
    for field in (GF(3), GF(5), QQ):
        for gram in ([[1, 0], [0, 2]], [[0, 1], [1, 1]]):
            space = QuadSpace(field, gram)
            with pytest.raises(DimensionMismatch):
                space.pairing([field(1)] * 3, [field(1)] * 2)
            with pytest.raises(DimensionMismatch):
                space.vnorm([field(1)])
            with pytest.raises(DimensionMismatch):
                space.restrict([[field(1)] * 3])
            with pytest.raises(DimensionMismatch):
                reflect(space, [field(1)] * 3)
        with pytest.raises(IsotropicMirror):
            reflect(QuadSpace(field, [[0, 1], [1, 0]]), [field(1), field(0)])
        with pytest.raises(DegenerateSpace):
            QuadSpace(field, [[1, 2], [2, 4]])
        with pytest.raises(DegenerateSpace):
            QuadSpace.diagonal(field, [1, -1]).restrict([[field(1), field(1)]])
        with pytest.raises(ValueError):
            QuadSpace(field, [[1, 2], [0, 1]])
    # vectors of another field are refused, of an equal one accepted
    s = QuadSpace(GF(5), [[1, 2], [2, 0]])
    with pytest.raises(FieldMismatch):
        s.vnorm([GF(7)(1), GF(7)(3)])
    with pytest.raises(FieldMismatch):
        s.pairing([QQ(1), QQ(3)], s.basis_vector(0))
    assert s.pairing([GF(5)(1), GF(5)(3)], [GF(5)(2), GF(5)(1)]) == GF(5)(1)
    # and ints are coerced, as Scalar arithmetic did
    assert s.pairing([1, 3], [2, 1]) == GF(5)(1)
    assert QuadSpace(QQ, [[1, 2], [2, 0]]).vnorm([Fraction(1, 2), 3]) == QQ(Fraction(25, 4))


def test_named_errors_survive_python_O():
    out = run_optimized("""
        from isogeny_kit.errors import DegenerateSpace, DimensionMismatch, IsotropicMirror
        from isogeny_kit.exactfield import GF, QQ
        from isogeny_kit.quadforms import QuadSpace, reflect
        assert False, "asserts are live"
        for field in (GF(3), QQ):
            s = QuadSpace(field, [[0, 1], [1, 0]])
            for name, call in (
                    ("DimensionMismatch", lambda: s.pairing([field(1)] * 3, [field(1)] * 3)),
                    ("IsotropicMirror", lambda: reflect(s, [field(1), field(0)])),
                    ("DegenerateSpace", lambda: QuadSpace(field, [[1, 1], [1, 1]])),
                    ("DegenerateSpace", lambda: s.restrict([[field(1), field(0)]]))):
                try:
                    call()
                except (DegenerateSpace, DimensionMismatch, IsotropicMirror) as exc:
                    print(field, type(exc).__name__ == name)
                else:
                    print(field, "nothing raised")
    """)
    assert out.split() == ["F_3", "True"] * 4 + ["Q", "True"] * 4


# -- reflection products and equality -----------------------------------------

REF_KINDS = KINDS + [(GF(7), None)]
REF_IDS = KIND_IDS + ["F7"]


def o_compose(space, mirrors):
    """R_{v_1} ... R_{v_k}: the Scalar-loop reflections applied to the
    identity from the last mirror to the first."""
    m = Mat.identity(space.field, space.dim)
    for v in reversed(mirrors):
        m = o_reflect_left(space, v, m)
    return m


def o_apply(m, v):
    return [sum((a * b for a, b in zip(row, v)), m.ring.zero()) for row in m.rows]


def o_equal(a, b):
    return (a.nrows, a.ncols) == (b.nrows, b.ncols) and all(
        x == y for r, s in zip(a.rows, b.rows) for x, y in zip(r, s))


@pytest.mark.parametrize("kind", REF_KINDS, ids=REF_IDS)
@SETTINGS
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 5), dense=st.booleans(),
       k=st.integers(0, 4))
def test_compose_reflections_and_reflect_match_the_scalar_loop(kind, seed, n, dense, k):
    """One int state across 0-4 mirrors with mixed (and over Q large)
    denominators, on diagonal and dense forms: equal, Scalar for Scalar,
    to the column-by-column reflections, with canonical values."""
    field, dens = kind
    rng = random.Random(seed)
    space = draw_space(field, rng, n, dense, dens)
    mirrors = [mixed_row(field, rng, n) for _ in range(k)]
    if any(o_pairing(space, v, v).is_zero() for v in mirrors):
        with pytest.raises(IsotropicMirror):
            compose_reflections(space, mirrors)
        return
    got = compose_reflections(space, mirrors).matrix
    assert got.rows == o_compose(space, mirrors).rows
    assert all(type(e.value) is (int if field.p else Fraction) for r in got.rows for e in r)
    for v in mirrors:
        assert reflect(space, v).matrix.rows == o_compose(space, [v]).rows
    # the kernel's state stays reduced: residues over 1, or a positive
    # denominator prime to the entries
    ys, e = [[int(i == j) for j in range(n)] for i in range(n)], 1
    for v in reversed(mirrors):
        ys, e = quadforms._reflect_ints(space, space._ints(v)[0], ys, e)
        flat = [a for row in ys for a in row]
        if field.p:
            assert e == 1 and all(0 <= a < field.p for a in flat)
        else:
            assert e > 0 and math.gcd(e, *flat) == 1


def o_scalar_eq(a, b):
    """Scalar.__eq__ as it tested its operand before the Scalar-first test."""
    if isinstance(b, (int, Fraction)):
        b = a.field(b)
    if not isinstance(b, Scalar):
        return NotImplemented
    return a.field == b.field and a.value == b.value


@pytest.mark.parametrize("kind", REF_KINDS, ids=REF_IDS)
@SETTINGS
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 5), m=st.integers(1, 5))
def test_scalar_and_mat_equality_match_the_isinstance_order(kind, seed, n, m):
    """Scalar-first equality against Scalars of the same, an equal and
    other fields, ints, Fractions and non-numbers; and Mat equality and
    apply entry by entry."""
    field, dens = kind
    rng = random.Random(seed)
    x = mixed_row(field, rng, 1)[0]
    twin = FieldDesc(field.p)
    others = [field(x.value), twin(x.value), x + field(1), GF(11)(3), QQ(Fraction(1, 2)),
              x.value, 0, 1, -3, True, Fraction(1, 2), Fraction(7, 11), None, "1", 1.0]
    for y in others:
        assert x.__eq__(y) == o_scalar_eq(x, y), y
        assert (x == y) == (o_scalar_eq(x, y) is True), y
    a = Mat(field, [mixed_row(field, rng, m) for _ in range(n)])
    copy = Mat(field, [[field(e.value) for e in row] for row in a.rows])
    k = rng.randrange(n)
    bent = Mat(field, [[e + field(1) if (i, j) == (k, 0) else e
                        for j, e in enumerate(row)] for i, row in enumerate(a.rows)])
    other = Mat(field, [mixed_row(field, rng, m) for _ in range(n)])
    for b in (a, copy, bent, other, a.T):
        assert (a == b) == o_equal(a, b)
        assert (a != b) == (not o_equal(a, b))
    v = mixed_row(field, rng, m)
    got = a.apply(v)
    assert got == o_apply(a, v)
    assert a.apply([twin(y.value) for y in v]) == got


def test_mats_over_different_rings_never_compare_equal():
    f5, f7 = GF(5), GF(7)
    rows = [[1, 2, 0], [3, 4, 1]]
    for a, b in ((f5, f7), (f5, QQ), (f7, QQ)):
        ma = Mat(a, [[a(e) for e in r] for r in rows])
        mb = Mat(b, [[b(e) for e in r] for r in rows])
        assert ma != mb and mb != ma
        assert not ma == mb
    assert Mat.identity(f5, 3) != Mat.identity(QQ, 3)
    assert Mat.identity(f5, 3) == Mat.identity(GF(5), 3)


def test_mat_equality_and_apply_over_a_tower():
    """Equality and apply over a QuadTower, and against a Mat over its base
    field, entry by entry (a scalar of the tower equals the base-field
    Scalar it lifts)."""
    f5 = GF(5)
    tower = QuadTower(f5, [2, 3])
    r0, r1 = tower.root(0), tower.root(1)
    a = Mat(tower, [[r0, tower.one()], [r1, r0 * r1]])
    assert a == Mat(tower, [[tower.root(0), tower.one()], [tower.root(1), r0 * r1]])
    assert a != Mat(tower, [[r0, tower.one()], [r1, r0]])
    for x, y in ((Mat.identity(tower, 2), Mat.identity(f5, 2)),
                 (Mat.identity(f5, 2), Mat.identity(tower, 2)), (a, Mat.identity(f5, 2))):
        assert (x == y) == o_equal(x, y)
    assert a.apply([tower.one(), r1]) == [r0 + r1, r1 + r0 * r1 * r1]


def reflect_ints_skipped(space, x, ys, e):
    return ys, e


def reflect_ints_without_two(space, x, ys, e):
    """The rank-one update with S = (Gx)^t Y: the factor 2 dropped."""
    p = space._p
    gx = space._gv(x)
    c = sum(map(mul, x, gx))
    s = [sum(g * y[j] for g, y in zip(gx, ys)) for j in range(len(ys[0]))]
    rows = [[c * a - b * t for a, t in zip(y, s)] for b, y in zip(x, ys)]
    if p:
        f = pow(c * e, -1, p)
        return [[a * f % p for a in row] for row in rows], 1
    return rows, c * e


REFLECTION_SUITES = ("ref2", "ref3", "ref4", "ref6d1", "ref6gen", "ref8id1", "ref8igen")
REFLECT_INTS_MUTANTS = {"skipped": reflect_ints_skipped, "without-two": reflect_ints_without_two}


@pytest.mark.parametrize("mutant", sorted(REFLECT_INTS_MUTANTS))
def test_reflection_suites_catch_reflect_ints_mutants(mutant, monkeypatch):
    monkeypatch.setattr(quadforms, "_reflect_ints", REFLECT_INTS_MUTANTS[mutant])
    for spec in ("p=5", "Q"):
        config = RunConfig.from_args(spec, seed=0, trials=6)
        for name in REFLECTION_SUITES:
            assert not run_suite(name, config).passed, (mutant, spec, name)


def test_reflect_ints_mutants_are_caught_under_python_O():
    out = run_optimized("""
        import test_quadform_ints as t
        from isogeny_kit import quadforms
        from isogeny_kit.suites import RunConfig, run_suite
        assert False, "asserts are live"
        for label, fn in sorted(t.REFLECT_INTS_MUTANTS.items()):
            quadforms._reflect_ints = fn
            for spec in ("p=5", "Q"):
                config = RunConfig.from_args(spec, seed=0, trials=6)
                print(label, spec, sum(not run_suite(n, config).passed
                                       for n in t.REFLECTION_SUITES))
        """)
    assert out.split("\n")[:-1] == ["%s %s 7" % (m, spec) for m in sorted(REFLECT_INTS_MUTANTS)
                                    for spec in ("p=5", "Q")]
