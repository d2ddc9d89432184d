"""Quadratic spaces: diagonalization, isotropy, Witt decomposition,
reflections, Cartan-Dieudonne, spinor norm."""

import itertools
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isogeny_kit import quadforms
from isogeny_kit.errors import (
    DegenerateSpace,
    DimensionMismatch,
    InvariantViolated,
    IsotropicMirror,
    NoIsotropicVector,
    SearchBudgetExceeded,
)
from isogeny_kit.exactfield import GF, QQ, FieldDesc, SquareClass, square_class
from isogeny_kit.linalg import Mat, independent_subset
from isogeny_kit.quadforms import (
    Isometry,
    QuadSpace,
    cartan_dieudonne,
    complement,
    compose_reflections,
    determinant_class,
    diagonalize,
    discriminant,
    find_isotropic,
    random_isometry,
    reflect,
    spinor_norm,
    split_hyperbolic,
    witt_decompose,
)

from tests_helpers import identity_isometry, nondiagonal_space, run_optimized

F3 = GF(3)
F5 = GF(5)


def hyperbolic_plane(field: FieldDesc) -> QuadSpace:
    return QuadSpace(field, [[0, 1], [1, 0]])


def test_pairing_examples():
    h = hyperbolic_plane(QQ)
    assert h.vnorm([QQ(1), QQ(0)]).is_zero()
    assert h.pairing([QQ(1), QQ(0)], [QQ(0), QQ(1)]) == QQ(1)
    s = QuadSpace.diagonal(F3, [1, -1])
    assert s.vnorm([F3(1), F3(1)]).is_zero()


def test_diagonal_pairing_matches_dense_gram():
    """The O(n) pairing of a diagonal space equals u^t G v; errors unchanged."""
    rng = random.Random(4)
    for field in (F5, QQ):
        for n in (1, 3, 5):
            entries = [rng.choice([1, 2, 3, -1]) for _ in range(n)]
            s = QuadSpace.diagonal(field, entries)
            assert s.diag == [field(e) for e in entries]
            for _ in range(10):
                u, v = s.random_vector(rng), s.random_vector(rng)
                dense = sum((a * b for a, b in zip(u, s.gram.apply(v))),
                            field.zero())
                assert s.pairing(u, v) == dense
                if not s.vnorm(v).is_zero():
                    m = reflect(s, v).matrix
                    assert m.T * s.gram * m == s.gram
                    assert m.apply(v) == [-x for x in v]
            with pytest.raises(DimensionMismatch):
                s.pairing([field(0)] * n + [field(1)], [field(0)] * n)
            with pytest.raises(DimensionMismatch):
                reflect(s, s.basis_vector(0) + [field(1)])
    assert hyperbolic_plane(F5).diag is None
    with pytest.raises(IsotropicMirror):
        reflect(QuadSpace.diagonal(F5, [1, 1]), [F5(1), F5(2)])


def test_polarization_identity():
    rng = random.Random(0)
    s = QuadSpace.diagonal(F5, [1, 2, 3, 1])
    for _ in range(50):
        v = s.random_vector(rng)
        w = s.random_vector(rng)
        lhs = s.vnorm([a + b for a, b in zip(v, w)])
        assert lhs == s.vnorm(v) + s.vnorm(w) + s.pairing(v, w) * F5(2)


def test_diagonalize():
    s = QuadSpace.diagonal(QQ, [1, 1, 1])
    p, diag = diagonalize(s)
    assert p == Mat.identity(QQ, 3)
    h = hyperbolic_plane(QQ)
    p, diag = diagonalize(h)
    m = p.T * h.gram * p
    assert m[0, 1].is_zero() and m[1, 0].is_zero()
    assert not m[0, 0].is_zero() and not m[1, 1].is_zero()


def test_determinant_discriminant():
    h = hyperbolic_plane(QQ)
    assert determinant_class(h).rep == -1
    assert discriminant(h).rep == 1
    s = QuadSpace.diagonal(QQ, [1, 1, 1])
    assert determinant_class(s).rep == 1
    assert discriminant(s).rep == -1


def test_find_isotropic():
    h = hyperbolic_plane(QQ)
    v = find_isotropic(h)
    assert v is not None and h.vnorm(v).is_zero()
    assert find_isotropic(QuadSpace.diagonal(QQ, [1, 1])) is None
    s = QuadSpace.diagonal(F3, [1, 1, 1])
    v = find_isotropic(s)
    assert v is not None and s.vnorm(v).is_zero()
    # derived check by enumeration: (1,1,1) is one witness
    assert s.vnorm([F3(1), F3(1), F3(1)]).is_zero()


def isotropic_by_search(space):
    """The exhaustive dim-2 search over F_p: the first (a, b) in diagonal
    coordinates with d0 a^2 + d1 b^2 = 0, mapped back, or None."""
    p_mat, (d0, d1) = diagonalize(space)
    f = space.field
    for a, b in itertools.product(range(f.p), repeat=2):
        if (a or b) and (d0.value * a * a + d1.value * b * b) % f.p == 0:
            return p_mat.apply([f(a), f(b)])
    return None


def test_dim2_isotropy_matches_exhaustive_search():
    for p in (3, 5, 7, 11, 13):
        f = GF(p)
        for a, b, c in itertools.product(range(p), repeat=3):
            if (a * c - b * b) % p:
                s = QuadSpace(f, [[a, b], [b, c]])
                assert find_isotropic(s) == isotropic_by_search(s)
    # over Q: isotropic exactly when -det is a square
    rng = random.Random(14)
    for _ in range(400):
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        if a * c == b * b:
            continue
        s = QuadSpace(QQ, [[a, b], [b, c]])
        v = find_isotropic(s)
        root = math.isqrt(max(b * b - a * c, 0))
        assert (v is not None) == (root * root == b * b - a * c)
        assert v is None or (any(not x.is_zero() for x in v) and s.vnorm(v).is_zero())


def test_dim2_isotropy_over_q_needs_no_factoring():
    # 1470600058489 = 1212683^2, a prime square past the trial-division bound
    s = QuadSpace.diagonal(QQ, [1, -1470600058489])
    assert find_isotropic(s) == [QQ(1212683), QQ(1)]
    assert witt_decompose(s)[0] == 1


def test_exhausted_search_is_a_named_error_in_every_dimension():
    """<1, 1, -2>, <1, 1, 1, -3> and <1, -1, 1, 1, 1> are isotropic, with
    witnesses of height 1; a height-0 search runs out and raises in each
    dimension, never returns None."""
    for diag in ([1, 1, -2], [1, 1, 1, -3], [1, -1, 1, 1, 1]):
        s = QuadSpace.diagonal(QQ, diag)
        with pytest.raises(SearchBudgetExceeded):
            find_isotropic(s, budget=0)
        with pytest.raises(SearchBudgetExceeded):
            witt_decompose(s, budget=0)
        assert s.vnorm(find_isotropic(s, budget=1)).is_zero()
    with pytest.raises(SearchBudgetExceeded):
        find_isotropic(QuadSpace.diagonal(QQ, [1, 7, -58]))   # (15, 1, 2)


def test_split_hyperbolic():
    h = hyperbolic_plane(QQ)
    e, f, sub, comp = split_hyperbolic(h)
    assert h.vnorm(e).is_zero() and h.vnorm(f).is_zero()
    assert h.pairing(e, f) == QQ(1)
    assert sub is None
    s = QuadSpace.diagonal(QQ, [1, -1, 1])
    e, f, sub, comp = split_hyperbolic(s)
    assert sub.dim == 1
    assert determinant_class(sub).rep == 1
    s4 = QuadSpace.diagonal(F5, [1, 1, 1, 1])
    assert s4.vnorm([F5(1), F5(2), F5(0), F5(0)]).is_zero()
    e, f, sub, comp = split_hyperbolic(s4)
    assert sub.dim == 2
    assert discriminant(s4) == discriminant(hyperbolic_plane(F5)) * discriminant(sub)


def test_split_hyperbolic_requires_isotropy():
    with pytest.raises(NoIsotropicVector):
        split_hyperbolic(QuadSpace.diagonal(QQ, [1, 1]))


def test_witt_decompose():
    planes = QuadSpace(QQ, [[0, 1, 0, 0, 0, 0, 0, 0],
                            [1, 0, 0, 0, 0, 0, 0, 0],
                            [0, 0, 0, 1, 0, 0, 0, 0],
                            [0, 0, 1, 0, 0, 0, 0, 0],
                            [0, 0, 0, 0, 0, 1, 0, 0],
                            [0, 0, 0, 0, 1, 0, 0, 0],
                            [0, 0, 0, 0, 0, 0, 0, 1],
                            [0, 0, 0, 0, 0, 0, 1, 0]])
    r, kernel, _ = witt_decompose(planes)
    assert r == 4 and kernel is None
    # diag(1, -2) = diag(1, 1) over F3 is anisotropic (9 vectors)
    s = QuadSpace.diagonal(F3, [1, -2])
    assert all(not s.vnorm([F3(a), F3(b)]).is_zero()
               for a in range(3) for b in range(3) if (a, b) != (0, 0))
    r, kernel, _ = witt_decompose(s)
    assert r == 0 and kernel.dim == 2
    r, kernel, _ = witt_decompose(QuadSpace.diagonal(F3, [1, 1, 1]))
    assert r == 1 and kernel.dim == 1


def test_witt_invariant_under_base_change():
    rng = random.Random(7)
    for _ in range(200):
        dim = rng.randrange(2, 7)
        entries = [F3(rng.randrange(1, 3)) for _ in range(dim)]
        s = QuadSpace.diagonal(F3, entries)
        r1, k1, _ = witt_decompose(s)
        while True:
            p = Mat(F3, [[F3(rng.randrange(3)) for _ in range(dim)]
                         for _ in range(dim)])
            if not p.det().is_zero():
                break
        s2 = QuadSpace(F3, p.T * s.gram * p)
        r2, k2, _ = witt_decompose(s2)
        assert r1 == r2
        assert (k1 is None) == (k2 is None)
        if k1 is not None:
            assert k1.dim == k2.dim
            assert discriminant(k1) == discriminant(k2)


def test_reflect_examples():
    s = QuadSpace.diagonal(F5, [2, 3, 1])
    r = reflect(s, s.basis_vector(0))
    assert r.matrix == Mat(F5, [[-F5(1), F5(0), F5(0)],
                                [F5(0), F5(1), F5(0)],
                                [F5(0), F5(0), F5(1)]])
    h = hyperbolic_plane(QQ)
    r = reflect(h, [QQ(1), QQ(1)])
    assert r.matrix == Mat(QQ, [[QQ(0), QQ(-1)], [QQ(-1), QQ(0)]])
    assert (r * r).matrix == Mat.identity(QQ, 2)
    with pytest.raises(IsotropicMirror):
        reflect(h, [QQ(1), QQ(0)])
    # a non-diagonal Gram: each column is e_j - 2<e_j, v>/|v|^2 v
    g = QuadSpace(QQ, [[2, 1, 0], [1, 3, 1], [0, 1, -1]])
    v = [QQ(1), QQ(-2), QQ(3)]
    r = reflect(g, v)
    for j in range(3):
        e = g.basis_vector(j)
        f = QQ(2) * g.pairing(e, v) / g.vnorm(v)
        assert r.apply(e) == [a - f * b for a, b in zip(e, v)]


def test_reflect_fixes_perp_exhaustive_f3():
    for entries in ([1, 2], [1, 1, 2], [2, 2, 1, 1]):
        s = QuadSpace.diagonal(F3, entries)
        n = s.dim
        import itertools
        vecs = [ [F3(c) for c in v] for v in itertools.product(range(3), repeat=n)]
        for v in vecs:
            if s.vnorm(v).is_zero():
                continue
            r = reflect(s, v)
            assert r.apply(v) == [-x for x in v]
            for w in vecs:
                if s.pairing(v, w).is_zero():
                    assert r.apply(w) == w


def test_cartan_dieudonne_examples():
    s = QuadSpace.diagonal(F5, [1, 1])
    from isogeny_kit.quadforms import Isometry
    ident = identity_isometry(s)
    assert cartan_dieudonne(ident) == []
    r = reflect(s, [F5(1), F5(1)])
    mirrors = cartan_dieudonne(r)
    assert len(mirrors) % 2 == 1
    assert compose_reflections(s, mirrors) == r
    minus = Isometry(s, Mat.identity(F5, 2) * F5(-1))
    mirrors = cartan_dieudonne(minus)
    assert len(mirrors) == 2
    assert compose_reflections(s, mirrors) == minus


def test_cartan_dieudonne_short_of_identity_is_a_named_error(monkeypatch):
    """A mirror update that changes nothing leaves the sweep short of the
    identity: InvariantViolated, also under python -O."""
    s = QuadSpace.diagonal(F5, [1, 2, 3])
    t = random_isometry(s, random.Random(2), special=True)
    monkeypatch.setattr(quadforms, "_reflect_matrix_left", lambda space, v, m: m)
    with pytest.raises(InvariantViolated, match="reach identity"):
        cartan_dieudonne(t)
    out = run_optimized("""
        import random
        from isogeny_kit import quadforms
        from isogeny_kit.errors import InvariantViolated
        from isogeny_kit.exactfield import GF
        assert False, "asserts are live"
        s = quadforms.QuadSpace.diagonal(GF(5), [1, 2, 3])
        t = quadforms.random_isometry(s, random.Random(2), special=True)
        quadforms._reflect_matrix_left = lambda space, v, m: m
        try:
            quadforms.cartan_dieudonne(t)
        except InvariantViolated as exc:
            print("raised", exc)
        """)
    assert out == "raised factorization failed to reach identity\n"


def test_cdt_random_all_dims():
    rng = random.Random(3)
    for field in (F3, F5, QQ):
        for dim in range(1, 9):
            entries = []
            while len(entries) < dim:
                e = field(rng.randrange(1, 3) if field.p else rng.randint(1, 5))
                entries.append(e)
            s = QuadSpace.diagonal(field, entries)
            for _ in range(4):
                t = random_isometry(s, rng, height=2)
                mirrors = cartan_dieudonne(t)
                assert len(mirrors) <= 2 * dim
                assert compose_reflections(s, mirrors) == t
                # determinant parity
                det = t.det()
                assert det == field(-1) ** (len(mirrors) % 2)


def test_spinor_norm_examples():
    s = QuadSpace.diagonal(F5, [1, 2, 3])
    from isogeny_kit.quadforms import Isometry
    assert spinor_norm(identity_isometry(s)).is_trivial()
    v = [F5(1), F5(1), F5(0)]
    assert spinor_norm(reflect(s, v)) == square_class(s.vnorm(v))
    # -Id on an even-dimensional space has spinor norm = determinant class
    for entries in ([1, 1], [1, 2], [1, 1, 2, 2]):
        s2 = QuadSpace.diagonal(F5, entries)
        minus = Isometry(s2, Mat.identity(F5, len(entries)) * F5(-1))
        assert spinor_norm(minus) == determinant_class(s2)


def test_spinor_norm_factorization_independent_and_multiplicative():
    rng = random.Random(11)
    for field in (F3, F5):
        s = QuadSpace.diagonal(field, [1, 2, 1, 2])
        for _ in range(40):
            t = random_isometry(s, rng)
            order = list(range(4))
            rng.shuffle(order)
            mirrors = cartan_dieudonne(t, pivot_order=order)
            cls = square_class(field(1))
            for v in mirrors:
                cls = cls * square_class(s.vnorm(v))
            assert cls == spinor_norm(t)
            u = random_isometry(s, rng)
            assert spinor_norm(u * t) == spinor_norm(u) * spinor_norm(t)


# ---------------------------------------------------------------------------
# the Wall-form spinor norm against the mirror-norm product of a
# Cartan-Dieudonne factorization (hypothesis drives the spaces and isometries)
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def mirror_norm_product(t):
    """The oracle: the product of the mirror-norm classes of cartan_dieudonne."""
    cls = SquareClass(t.space.field, 1)
    for v in cartan_dieudonne(t):
        cls = cls * square_class(t.space.vnorm(v))
    return cls


@st.composite
def spaces(draw):
    """Diagonal spaces, or P^t D P for a unipotent upper-triangular P."""
    field = draw(st.sampled_from([GF(3), GF(5), GF(7), QQ]))
    dim = draw(st.integers(1, 5))
    units = (st.integers(1, field.p - 1) if field.p
             else st.sampled_from([-3, -2, -1, 1, 2, 3, 5]))
    space = QuadSpace.diagonal(field, [draw(units) for _ in range(dim)])
    if draw(st.booleans()):
        coeff = st.integers(0, field.p - 1) if field.p else st.integers(-1, 1)
        p = Mat(field, [[field(1 if i == j else draw(coeff) if i < j else 0)
                         for j in range(dim)] for i in range(dim)])
        space = QuadSpace(field, p.T * space.gram * p)
    return space


@PROPERTY
@given(space=spaces(), kind=st.sampled_from(["random", "identity", "reflection", "minus"]),
       seed=st.integers(0, 2 ** 16))
def test_wall_spinor_norm_matches_mirror_product(space, kind, seed):
    rng = random.Random(seed)
    field, n = space.field, space.dim
    if kind == "identity":
        t = identity_isometry(space)
    elif kind == "reflection":
        t = reflect(space, space.random_anisotropic(rng, height=2))
    elif kind == "minus":
        t = Isometry(space, Mat.identity(field, n) * field(-1))
    else:
        t = random_isometry(space, rng, height=1,
                            max_mirrors=None if field.p else n)
    assert spinor_norm(t) == mirror_norm_product(t)
    if kind == "minus" and n % 2 == 0:
        assert spinor_norm(t) == determinant_class(space)


# ---------------------------------------------------------------------------
# orthogonal complements, against the sub-space recursions they replaced
# ---------------------------------------------------------------------------

FIELDS = [GF(3), GF(5), GF(7), QQ]


def _units(field, rng, k):
    if field.p:
        return [rng.randrange(1, field.p) for _ in range(k)]
    return [rng.choice([-3, -2, -1, 1, 2, 5]) for _ in range(k)]


def _rank(field, vecs):
    return Mat(field, [list(v) for v in vecs]).rank() if vecs else 0


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_complement_is_an_orthogonal_basis_of_the_rest(field):
    rng = random.Random(20)
    for _ in range(30):
        n = rng.randrange(1, 7)
        s = nondiagonal_space(field, _units(field, rng, n), rng)
        v = s.random_anisotropic(rng, height=2)
        # the whole space, or a span that holds v, given by a basis
        m = rng.randrange(n) + 1
        while True:
            span = [v] + [s.random_vector(rng, height=2) for _ in range(m - 1)]
            if _rank(field, span) == m:
                break
        for basis in (None, span):
            k = n if basis is None else m
            comp = complement(s, v, basis)
            assert len(comp) == k - 1 and _rank(field, comp) == k - 1
            assert all(s.pairing(w, v).is_zero() for w in comp)
            if not comp:
                continue
            gram = Mat(field, [[s.pairing(a, b) for b in comp] for a in comp])
            if gram.det().is_zero():   # a degenerate span
                with pytest.raises(DegenerateSpace):
                    s.restrict(comp)
            else:
                assert s.restrict(comp).gram == gram


def split_by_projection(space, budget=10):
    """split_hyperbolic as it was: e from the search, f from the first basis
    vector that pairs with it, each basis vector projected off span(e, f)
    in one step."""
    field = space.field
    e = find_isotropic(space, budget=budget)
    if e is None:
        raise NoIsotropicVector("space is anisotropic")
    f = next(b for b in map(space.basis_vector, range(space.dim))
             if not space.pairing(e, b).is_zero())
    f = [space.pairing(e, f).inverse() * x for x in f]
    f = [x - space.vnorm(f) / field(2) * y for x, y in zip(f, e)]
    comp = []
    for i in range(space.dim):
        w = space.basis_vector(i)
        w = [x - space.pairing(w, f) * y for x, y in zip(w, e)]
        w = [x - space.pairing(w, e) * y for x, y in zip(w, f)]
        comp.append(w)
    comp = independent_subset(field, comp, space.dim - 2)
    gram = Mat(field, [[space.pairing(u, v) for v in comp] for u in comp])
    return e, f, QuadSpace(field, gram) if comp else None, comp


def witt_by_subspaces(space, budget=10):
    """witt_decompose as it was: a search per plane before each split, and
    the kernel basis carried into ambient coordinates by hand."""
    r, current = 0, space
    embed = [space.basis_vector(i) for i in range(space.dim)]
    while current is not None and find_isotropic(current, budget=budget) is not None:
        _, _, current, comp = split_by_projection(current, budget)
        r += 1
        embed = [[sum((c * b[i] for c, b in zip(w, embed)), space.field.zero())
                  for i in range(space.dim)] for w in comp]
    return r, current, embed


def _outcome(f, space):
    """repr of f(space), or the name of the library error it raised."""
    try:
        return repr(f(space))
    except (NoIsotropicVector, SearchBudgetExceeded) as exc:
        return type(exc).__name__


def test_split_and_witt_match_the_subspace_recursions():
    rng = random.Random(21)
    for field in FIELDS:
        for _ in range(25):
            n = rng.randrange(1, 7) if field.p else rng.randrange(2, 4)
            d = _units(field, rng, n)
            if not field.p and n == 3:
                d[1] = -d[0]   # isotropic: a Q search of dim 3 that runs dry takes 1 s
            s = nondiagonal_space(field, d, rng)
            assert _outcome(witt_decompose, s) == _outcome(witt_by_subspaces, s)
            split = _outcome(split_hyperbolic, s)
            assert split == _outcome(split_by_projection, s)
            if split not in ("NoIsotropicVector", "SearchBudgetExceeded"):
                assert is_hyperbolic_split(s, *split_hyperbolic(s))


def is_hyperbolic_split(space, e, f, sub, comp):
    """(e, f) a hyperbolic pair, comp dim - 2 vectors orthogonal to both
    and sub a space of that dimension (None for a plane)."""
    zero = space.field.zero()
    return (space.vnorm(e) == zero and space.vnorm(f) == zero
            and space.pairing(e, f) == space.field(1)
            and len(comp) == space.dim - 2 == (sub.dim if sub else 0)
            and all(space.pairing(w, x) == zero for w in comp for x in (e, f)))


def test_a_split_projected_off_e_plus_f_only_is_caught():
    """The mutant that skips the projection off e - f keeps e - f in the
    complement: one dimension too many, and not orthogonal to e or f."""
    rng = random.Random(22)
    for field in FIELDS:
        s = nondiagonal_space(field, [1, -1, 1, 2][:4 if field.p else 3], rng)
        e, f, _, _ = split_hyperbolic(s)
        comp = complement(s, [a + b for a, b in zip(e, f)])
        assert not is_hyperbolic_split(s, e, f, s.restrict(comp), comp)
