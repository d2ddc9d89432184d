"""The elimination kernel behind det, rank, solve, inverse and
independent_subset, checked against definitions over F_3, F_7 and Q; the
bare-value matrix product and isometry check against the Scalar loops."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isogeny_kit.algebras import EtaleQuad
from isogeny_kit.errors import DegenerateSpace, NonInvertible
from isogeny_kit.exactfield import GF, QQ, Scalar
from isogeny_kit.linalg import Mat, berkowitz_det, independent_subset
from isogeny_kit.quadforms import Isometry, QuadSpace, random_isometry

FIELDS = (GF(3), GF(7), QQ)
SHAPES = ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (2, 4), (3, 5), (4, 2), (5, 3))


def rand_entry(field, rng):
    if field.p is None:
        return field(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
    return field(rng.randrange(field.p))


def rand_mat(field, rng, n, m):
    return Mat(field, [[rand_entry(field, rng) for _ in range(m)] for _ in range(n)])


def samples(field, seed):
    """Random matrices of every shape, each also with a duplicate row and
    with a zero column (rank-deficient variants)."""
    rng = random.Random(seed)
    out = []
    for n, m in SHAPES:
        for _ in range(6):
            a = rand_mat(field, rng, n, m)
            out.append(a)
            if n > 1:
                rows = [list(r) for r in a.rows]
                rows[rng.randrange(1, n)] = list(rows[0])
                out.append(Mat(field, rows))
            j = rng.randrange(m)
            out.append(Mat(field, [[field.zero() if c == j else e
                                    for c, e in enumerate(r)] for r in a.rows]))
    return out, rng


def augment(a, b):
    return Mat(a.ring, [list(r) + [v] for r, v in zip(a.rows, b)])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_matches_berkowitz(field):
    mats, _ = samples(field, 1)
    for a in mats:
        if a.nrows == a.ncols:
            assert a.det() == berkowitz_det(a)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rank_of_transpose(field):
    mats, _ = samples(field, 2)
    for a in mats:
        r = a.rank()
        assert r == a.T.rank()
        assert r <= min(a.nrows, a.ncols)
        if a.nrows == a.ncols:
            assert (r == a.nrows) == (not a.det().is_zero())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_solve(field):
    mats, rng = samples(field, 3)
    for a in mats:
        consistent = a.apply([rand_entry(field, rng) for _ in range(a.ncols)])
        arbitrary = [rand_entry(field, rng) for _ in range(a.nrows)]
        for b in (consistent, arbitrary):
            x = a.solve(b)
            if augment(a, b).rank() > a.rank():
                assert x is None
                continue
            assert x is not None and a.apply(x) == b
            # free variables (columns dependent on the ones before) are 0
            for j in range(a.ncols):
                left = Mat(field, [r[:j] for r in a.rows]).rank() if j else 0
                if Mat(field, [r[:j + 1] for r in a.rows]).rank() == left:
                    assert x[j].is_zero()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_inverse(field):
    mats, _ = samples(field, 4)
    singular = 0
    for a in mats:
        if a.nrows != a.ncols:
            continue
        n = a.nrows
        if a.rank() < n:
            singular += 1
            with pytest.raises(NonInvertible):
                a.inverse()
            continue
        ai = a.inverse()
        assert ai * a == Mat.identity(field, n)
        assert a * ai == Mat.identity(field, n)
    assert singular > 0


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_independent_subset_is_greedy(field):
    mats, _ = samples(field, 5)
    for a in mats:
        vecs = a.rows
        greedy = []
        for v in vecs:
            if Mat(field, greedy + [v]).rank() == len(greedy) + 1:
                greedy.append(v)
        for k in range(len(greedy) + 1):
            assert independent_subset(field, vecs, k) == greedy[:k]
        with pytest.raises(DegenerateSpace):
            independent_subset(field, vecs, len(greedy) + 1)


def test_elimination_needs_a_field():
    e = EtaleQuad(GF(5), 4)
    m = Mat(e, [[e.one(), e.zero()], [e.zero(), e.gen0()]])
    with pytest.raises(TypeError):
        m.det()
    assert berkowitz_det(m) == e.gen0()


# ---------------------------------------------------------------------------
# the fraction-free elimination over Q against a naive Fraction elimination
# ---------------------------------------------------------------------------

def naive_rref(rows, ncols):
    """Gauss-Jordan on Fractions with the kernel's pivot rule (the first
    nonzero entry at or below the current row): (rref rows, pivot
    columns, determinant of the first ncols columns)."""
    a = [[Fraction(v) for v in r] for r in rows]
    pivots, det = [], Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        pv = a[r][c]
        det *= pv
        a[r] = [v / pv for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [v - f * t for v, t in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots, det


def q_samples(seed):
    """Random rational matrices: square up to 12x12, wide, tall, with a
    repeated row, with zero columns and with many zero entries."""
    rng = random.Random(seed)

    def entry(zero_share):
        if rng.random() < zero_share:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    out = []
    for n, m in ((1, 1), (2, 2), (3, 3), (5, 5), (8, 8), (12, 12), (3, 6),
                 (4, 9), (6, 3), (9, 4), (7, 7)):
        for zero_share in (0.0, 0.5, 0.8):
            rows = [[entry(zero_share) for _ in range(m)] for _ in range(n)]
            out.append(rows)
            if n > 1:
                dup = [list(r) for r in rows]
                dup[rng.randrange(1, n)] = list(dup[0])
                out.append(dup)
            zcols = rng.sample(range(m), max(1, m // 3))
            out.append([[Fraction(0) if j in zcols else v for j, v in enumerate(r)]
                        for r in rows])
    return [Mat(QQ, [[QQ(v) for v in r] for r in rows]) for rows in out], rng


def values(vec):
    return [v.value for v in vec]


def test_q_det_and_rank_match_naive():
    mats, _ = q_samples(11)
    for a in mats:
        _, pivots, det = naive_rref([values(r) for r in a.rows], a.ncols)
        assert a.rank() == len(pivots)
        if a.nrows == a.ncols:
            assert a.det().value == det


def test_q_solve_matches_naive():
    mats, rng = q_samples(12)
    for a in mats:
        consistent = a.apply([QQ(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                              for _ in range(a.ncols)])
        arbitrary = [QQ(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                     for _ in range(a.nrows)]
        for b in (consistent, arbitrary):
            red, pivots, _ = naive_rref([values(r) + [v.value] for r, v in zip(a.rows, b)],
                                        a.ncols)
            x = a.solve(b)
            if any(row[-1] for row in red[len(pivots):]):
                assert x is None
                continue
            # the reduced echelon form reads off the solution with free variables 0
            want = [Fraction(0)] * a.ncols
            for i, c in enumerate(pivots):
                want[c] = red[i][-1]
            assert values(x) == want


def test_q_inverse_and_independent_subset_match_naive():
    mats, _ = q_samples(13)
    inverted = 0
    for a in mats:
        n = a.ncols
        _, pivots, _ = naive_rref([[r[i].value for r in a.rows] for i in range(n)],
                                  a.nrows)
        for k in range(len(pivots) + 1):
            assert independent_subset(QQ, a.rows, k) == [a.rows[c] for c in pivots[:k]]
        if a.nrows != n:
            continue
        red, pivots, _ = naive_rref([values(r) + [Fraction(int(i == j)) for j in range(n)]
                                     for i, r in enumerate(a.rows)], n)
        if len(pivots) < n:
            with pytest.raises(NonInvertible):
                a.inverse()
            continue
        inverted += 1
        assert [values(r) for r in a.inverse().rows] == [row[n:] for row in red]
    assert inverted > 10


# ---------------------------------------------------------------------------
# the bare-value paths over F_p and Q against the generic Scalar loops:
# Mat.__mul__, and Isometry.is_valid for diagonal and non-diagonal Gram
# matrices (hypothesis draws the operands)
# ---------------------------------------------------------------------------

BARE_FIELDS = (GF(5), QQ)
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def scalar_loop_product(a, b):
    """The entry loop that Mat.__mul__ runs over rings other than F_p and Q."""
    return [[sum((a.rows[i][k] * b.rows[k][j] for k in range(a.ncols)), a.ring.zero())
             for j in range(b.ncols)] for i in range(a.nrows)]


def scalar_loop_is_valid(space, t):
    """T^t G T == G on the Scalar loop."""
    tt = Mat(space.field, [list(c) for c in zip(*t.rows)])
    return scalar_loop_product(Mat(space.field, scalar_loop_product(tt, space.gram)),
                               t) == space.gram.rows


def entry(field):
    if field.p is None:
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
    return st.integers(0, field.p - 1)


@st.composite
def matrix(draw, field, n, m):
    return Mat(field, [[field(draw(entry(field))) for _ in range(m)] for _ in range(n)])


@pytest.mark.parametrize("field", BARE_FIELDS, ids=repr)
@PROPERTY
@given(data=st.data())
def test_bare_product_matches_scalar_loop(field, data):
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = data.draw(matrix(field, n, k), label="a")
    b = data.draw(matrix(field, k, m), label="b")
    prod = a * b
    assert prod.rows == scalar_loop_product(a, b)
    assert all(type(e) is Scalar and e.field == field for r in prod.rows for e in r)
    if field.p is None:
        assert all(type(e.value) is Fraction for r in prod.rows for e in r)


def bare_spaces():
    """Diagonal and non-diagonal nondegenerate spaces over F_5 and Q."""
    out = []
    for field in BARE_FIELDS:
        diag = [1, 2, 3, 4] if field.p else [1, -2, Fraction(3, 2), 5]
        out.append(QuadSpace.diagonal(field, diag))
        gram = [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 3, 1], [0, 0, 1, 1]]
        if field.p is None:
            gram[1][1] = Fraction(5, 3)
        out.append(QuadSpace(field, gram))
    return out


BARE_SPACES = bare_spaces()
BARE_SPACE_IDS = ["%s/%s" % (s.field, "diag" if s.diag else "full") for s in BARE_SPACES]


@pytest.mark.parametrize("space", BARE_SPACES, ids=BARE_SPACE_IDS)
@PROPERTY
@given(data=st.data())
def test_bare_is_valid_matches_scalar_loop(space, data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6), label="seed"))
    field, n = space.field, space.dim
    t = random_isometry(space, rng, height=1, max_mirrors=n).matrix
    assert Isometry(space, t, check=False).is_valid()
    assert scalar_loop_is_valid(space, t)
    # one entry moved by the first delta the Scalar loop rejects: a mutation
    # the bare check must catch
    i, j = data.draw(st.integers(0, n - 1), label="i"), data.draw(st.integers(0, n - 1),
                                                                   label="j")
    for delta in (1, 2, 3):
        rows = [list(r) for r in t.rows]
        rows[i][j] = rows[i][j] + field(delta)
        bad = Mat(field, rows)
        if not scalar_loop_is_valid(space, bad):
            break
    else:
        raise AssertionError("no delta in 1..3 breaks the isometry")
    assert not Isometry(space, bad, check=False).is_valid()
    with pytest.raises(ValueError):
        Isometry(space, bad)
