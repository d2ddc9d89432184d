"""The elimination kernel behind det, rank, solve, inverse and
independent_subset, checked against definitions over F_3, F_7 and Q."""

import random
from fractions import Fraction

import pytest

from isogeny_kit.algebras import EtaleQuad
from isogeny_kit.errors import DegenerateSpace, NonInvertible
from isogeny_kit.exactfield import GF, QQ
from isogeny_kit.linalg import Mat, berkowitz_det, independent_subset

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
