"""QuadSpace's int form against Scalar-loop oracles.

Each oracle below is the Scalar arithmetic the library did before its
spaces held their forms as ints: u^t G v summed term by term, complements
projected with Scalar products, the same Gauss pivoting and the same
isotropy searches.  Spaces are drawn over F_3, F_5 and Q, diagonal and
dense (P^t D P), and over Q with entries over large coprime denominators.
Results must be equal, vector for vector, and the named errors must stay
the same, also under `python -O`.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isogeny_kit.errors import (
    DegenerateSpace,
    DimensionMismatch,
    FieldMismatch,
    IsotropicMirror,
    SearchBudgetExceeded,
)
from isogeny_kit.exactfield import GF, QQ, sqrt_exact, square_class
from isogeny_kit.linalg import Mat, independent_subset
from isogeny_kit.quadforms import (
    Isometry,
    QuadSpace,
    compose_reflections,
    complement,
    diagonalize,
    find_isotropic,
    reflect,
    spinor_norm,
)
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
