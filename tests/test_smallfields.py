"""Form classification, SO+ index, norm surjectivity, and the census."""

import itertools
import os
import random
import subprocess
import sys
import textwrap

import pytest

import isogeny_kit
from isogeny_kit import smallfields
from isogeny_kit.algebras import EtaleQuad
from isogeny_kit.errors import BudgetExceeded, InvariantViolated
from isogeny_kit.exactfield import GF, SquareClass, square_class
from isogeny_kit.linalg import Mat, independent_subset
from isogeny_kit.quadforms import (
    Isometry,
    QuadSpace,
    cartan_dieudonne,
    diagonal_ints,
    find_isotropic,
    spinor_norm,
    wall_value,
)
from isogeny_kit.smallfields import (
    census,
    census_space,
    classify_form,
    enumerate_isometries,
    enumerate_isometry_columns,
    explicit_isometry,
    norm_surjectivity,
    orthogonal_order,
    so_plus_index,
)
from tests_helpers import nondiagonal_space

F3 = GF(3)
F5 = GF(5)


def test_classify_examples():
    a = QuadSpace.diagonal(F5, [1, 1])
    b = QuadSpace.diagonal(F5, [2, 2])
    assert classify_form(a) == classify_form(b)
    m = explicit_isometry(a, b)
    assert m is not None
    assert m.T * b.gram * m == a.gram
    c = QuadSpace.diagonal(F5, [1])
    d = QuadSpace.diagonal(F5, [2])
    assert classify_form(c) != classify_form(d)
    assert explicit_isometry(c, d) is None


def test_every_dim3_form_isotropic():
    for field in (F3, F5):
        import itertools
        for entries in itertools.product(range(1, field.p), repeat=3):
            s = QuadSpace.diagonal(field, list(entries))
            assert find_isotropic(s) is not None


def test_classification_complete_up_to_dim4():
    """Isometric iff equal (dim, disc), with explicit isometries."""
    import itertools
    for field in (F3, F5):
        for dim in (1, 2, 3, 4):
            reps = {}
            for entries in itertools.product(range(1, field.p), repeat=dim):
                s = QuadSpace.diagonal(field, list(entries))
                key = (dim, classify_form(s)[1].rep)
                if key in reps:
                    m = explicit_isometry(s, reps[key])
                    assert m is not None
                    assert m.T * reps[key].gram * m == s.gram
                else:
                    reps[key] = s
            # distinct classes are never isometric
            keys = list(reps)
            for i in range(len(keys)):
                for j in range(i + 1, len(keys)):
                    assert explicit_isometry(reps[keys[i]], reps[keys[j]]) is None


def test_so_plus_index():
    for field in (F3, F5):
        assert so_plus_index(QuadSpace.diagonal(field, [1]))[0] == 1
        for entries in ([1, 1], [1, field.least_nonresidue().value],
                        [1, 1, 1], [1, 1, 1, 1]):
            idx, witness = so_plus_index(QuadSpace.diagonal(field, entries))
            assert idx == 2 and witness is not None


def test_norm_surjectivity():
    e = EtaleQuad(F3, F3.least_nonresidue())
    wit = norm_surjectivity(e)
    assert sorted(wit) == [1, 2]
    for n, z in wit.items():
        assert z.norm() == F3(n)
    # norms of F-scalars are the squares
    for r in range(1, 3):
        assert e.from_scalar(F3(r)).norm() == F3(r) * F3(r)
    # F9 is quadratically finite: index of squares is 2
    squares = {(z * z) for z in e.elements()}
    units = [z for z in e.elements() if not z.norm().is_zero()]
    sq_units = [z for z in units if z in squares]
    assert len(sq_units) * 2 == len(units)


def test_census_f3():
    rep = census(3, 6)
    rows = {(r.dim, r.disc_rep): r for r in rep.rows}
    assert rows[(2, "2")].so == 4
    assert rows[(3, "1")].so == 24
    assert rows[(3, "1")].so_plus == 12           # |PSL_2(F_3)|
    assert 3 * (9 - 1) == 24                      # |PGL_2(F_3)| oracle
    for r in rep.rows:
        if r.dim > 1:
            assert r.so_plus * 2 == r.so
    assert "spin = Sp_4(F)" in rows[(5, "1")].identification
    text = rep.table()
    assert "census over F_3" in text


def test_census_f5_and_f7():
    rep5 = census(5, 4)
    rows = {(r.dim, r.disc_rep): r for r in rep5.rows}
    assert rows[(3, "1")].so == 5 * 24            # q(q^2-1)
    assert rows[(4, "1")].so == 25 * 576          # q^2 (q^2-1)^2
    rep7 = census(7, 4)
    rows7 = {(r.dim, r.disc_rep): r for r in rep7.rows}
    assert rows7[(2, "1")].so == 6
    assert rows7[(2, "3")].so == 8
    with pytest.raises(BudgetExceeded):
        census(11, 3)


def test_orbit_stabilizer_matches_enumeration():
    for field, dims in ((F3, (2, 3, 4)), (F5, (2, 3))):
        for dim in dims:
            for trivial in ((True,) if dim % 2 else (True, False)):
                space = census_space(field, dim, trivial)
                count = sum(1 for _ in enumerate_isometries(space))
                diag, _ = diagonal_ints(space)
                assert count == orthogonal_order(diag, field.p)
                so = sum(1 for i in enumerate_isometries(space)
                         if i.det() == field(1))
                assert so * 2 == orthogonal_order(diag, field.p)


def test_classify_invariant_under_base_change():
    import random
    from isogeny_kit.linalg import Mat
    rng = random.Random(9)
    for _ in range(60):
        dim = rng.randrange(1, 5)
        entries = [rng.randrange(1, 3) for _ in range(dim)]
        s = QuadSpace.diagonal(F3, entries)
        while True:
            p = Mat(F3, [[F3(rng.randrange(3)) for _ in range(dim)]
                         for _ in range(dim)])
            if not p.det().is_zero():
                break
        s2 = QuadSpace(F3, p.T * s.gram * p)
        k1, k2 = classify_form(s), classify_form(s2)
        assert k1[0] == k2[0] and k1[1] == k2[1]


def match_by_subspaces(b, diag_a):
    """_match_diagonal as it was: each complement a QuadSpace in its own
    coordinates, its vectors carried back to b through the chain of bases."""
    field = b.field
    current = b
    embed = [b.basis_vector(i) for i in range(b.dim)]

    def lift(coords):
        return [sum((c * e[i] for c, e in zip(coords, embed)), field.zero())
                for i in range(b.dim)]

    out = []
    for c in diag_a:
        diag_c, p_mat = diagonal_ints(current)
        v = next(smallfields._vectors_of_norm(diag_c, c, field.p), None)
        if v is None:
            return None
        found = p_mat.apply([field(x) for x in v])
        out.append(lift(found))
        if current.dim == 1:
            break
        nrm = current.vnorm(found)
        comp = [[x - current.pairing(e, found) / nrm * y for x, y in zip(e, found)]
                for e in map(current.basis_vector, range(current.dim))]
        comp = independent_subset(field, comp, current.dim - 1)
        gram = Mat(field, [[current.pairing(u, w) for w in comp] for u in comp])
        embed = [lift(w) for w in comp]
        current = QuadSpace(field, gram)
    return out


def test_match_diagonal_matches_the_subspace_recursion():
    """Exact vectors and explicit isometries on non-diagonal forms, also
    when b has no vector of some norm (None)."""
    rng = random.Random(23)
    for p in (3, 5, 7):
        field = GF(p)
        for _ in range(40):
            n = rng.randrange(1, 6 if p == 3 else 5)
            a = nondiagonal_space(field, [rng.randrange(1, p) for _ in range(n)], rng)
            b = nondiagonal_space(field, [rng.randrange(1, p) for _ in range(n)], rng)
            diag_a = diagonal_ints(a)[0]
            assert repr(smallfields._match_diagonal(b, diag_a)) == repr(
                match_by_subspaces(b, diag_a))
            m = explicit_isometry(a, b)
            assert (m is None) == (classify_form(a) != classify_form(b))


def _bruteforce_columns(diag, p):
    """Every tuple of sphere vectors, kept when pairwise orthogonal."""
    n = len(diag)

    def dot(u, v):
        return sum(d * x * y for d, x, y in zip(diag, u, v)) % p

    spheres = [[v for v in itertools.product(range(p), repeat=n)
                if any(v) and dot(v, v) == d % p] for d in diag]
    return [cols for cols in itertools.product(*spheres)
            if all(dot(cols[i], cols[j]) == 0
                   for i in range(n) for j in range(i + 1, n))]


def test_isometry_columns_match_bruteforce():
    """Bitset-pool enumeration = filtered product, in the same order, and
    each paired determinant is the determinant of its columns.  Dimension
    3 is where a second column's subtrees are replayed from their sign
    twins, so over F_5 it runs on every pattern of the two classes and on
    the other representatives 3 and 4."""
    for p in (3, 5, 7):
        field = GF(p)
        nr = field.least_nonresidue().value
        cases = [[1], [nr], [1, 1], [1, nr], [nr, nr],
                 [1, 1, 1], [1, 1, nr], [nr, 1, nr]]
        if p == 3:
            cases += [[1, 1, 1, 1], [1, 1, 1, nr], [nr, 1, nr, 1]]
        if p == 5:
            cases += [[1, nr, 1], [nr, 1, 1], [1, nr, nr], [nr, nr, 1],
                      [nr, nr, nr], [3, 4, 2], [4, 3, 3]]
        for diag in cases:
            got = list(enumerate_isometry_columns(diag, p))
            assert [cols for cols, _ in got] == _bruteforce_columns(diag, p), (diag, p)
            assert len(got) == orthogonal_order(diag, p)
            n = len(diag)
            d = Mat(field, [[field(diag[i] if i == j else 0) for j in range(n)]
                            for i in range(n)])
            for cols, det in got:
                m = Mat(field, [[field(cols[j][i]) for j in range(n)]
                                for i in range(n)])
                assert m.T * d * m == d
                assert field(det) == m.det(), (diag, cols)


def _det_mismatches(diag, p, step):
    """Every step-th enumerated item whose det differs from Mat.det, after
    checking that the enumerator yields |O(V)| items."""
    field = GF(p)
    n = len(diag)
    bad = []
    count = 0
    for k, (cols, det) in enumerate(enumerate_isometry_columns(diag, p)):
        count += 1
        if k % step == 0:
            m = Mat(field, [[field(cols[j][i]) for j in range(n)] for i in range(n)])
            if field(det) != m.det():
                bad.append((cols, det))
    assert count == orthogonal_order(diag, p)
    return bad


def test_determinants_match_mat_det_in_dimension_4(monkeypatch):
    """p = 5 and 7 in dimension 4, out of the brute-force test's reach:
    every 97th determinant against Mat.det.  Both F_7 classes have
    |O| > EXHAUSTIVE_LIMIT, so the limit is raised for this check."""
    monkeypatch.setattr(smallfields, "EXHAUSTIVE_LIMIT", 250_000)
    for p in (5, 7):
        nr = GF(p).least_nonresidue().value
        for diag in ([1, 1, 1, 1], [1, 1, 1, nr]):
            assert _det_mismatches(diag, p, 97) == [], (diag, p)


def _flip_one_laplace_sign(real):
    """The Laplace plans with the sign of one term of the cofactor of row
    n - 1 flipped: its row-0 term."""
    def plans(n):
        out = real(n)
        if out:
            s, j = out[-1][0][0]
            out[-1][0][0] = (-s, j)
        return out
    return plans


def test_a_flipped_laplace_sign_is_caught(monkeypatch):
    monkeypatch.setattr(smallfields, "_laplace_plans",
                        _flip_one_laplace_sign(smallfields._laplace_plans))
    assert _det_mismatches([1, 1, 1, 1], 5, 97)
    assert _det_mismatches([1, 1, 1, 2], 5, 97)
    with pytest.raises(AssertionError):
        test_isometry_columns_match_bruteforce()
    with pytest.raises(InvariantViolated, match="of det 1"):
        census(5, 4)


def _replay_keeping_dets(items, col, w, p):
    """_replay with the twin's determinants left as they were."""
    for cols, det in items:
        yield cols[:col] + (w,) + cols[col + 1:], det


def _replay_the_twin(items, col, w, p):
    """_replay with the kept column v left in place of -v."""
    for cols, det in items:
        yield cols, -det % p


@pytest.mark.parametrize("mutant", [_replay_keeping_dets, _replay_the_twin])
def test_sign_twin_replay_mutants_are_caught(monkeypatch, mutant):
    """Both mutants keep the count and the det-1 count (each {w, -w} pair
    still splits into det 1 and det -1), so the census cannot see them;
    the order and determinant tests do."""
    monkeypatch.setattr(smallfields, "_replay", mutant)
    with pytest.raises(AssertionError):
        test_isometry_columns_match_bruteforce()
    with pytest.raises(AssertionError):
        test_determinants_match_mat_det_in_dimension_4(monkeypatch)


def test_wall_value_on_int_columns_is_the_spinor_norm():
    """The census's spinor filter: wall_value on the rows of 1 - T (from
    the int columns) and the diagonal, against spinor_norm of the wrapped
    Isometry and the mirror-norm product of cartan_dieudonne, for every
    det-1 isometry of the exhaustive rows."""
    for p, dims in ((3, (2, 3, 4)), (5, (2, 3)), (7, (2, 3))):
        field = GF(p)
        for dim in dims:
            for trivial in ((True,) if dim % 2 else (True, False)):
                diag = diagonal_ints(census_space(field, dim, trivial))[0]
                space = QuadSpace.diagonal(field, diag)
                seen = 0
                for cols, det in enumerate_isometry_columns(diag, p):
                    if det != 1:
                        continue
                    seen += 1
                    one_minus = [[((i == j) - x) % p for j, x in enumerate(row)]
                                 for i, row in enumerate(zip(*cols))]
                    cls = square_class(field(wall_value(one_minus, diag, p)))
                    t = Isometry(space, Mat(field, [[field(x) for x in row]
                                                    for row in zip(*cols)]))
                    assert cls == spinor_norm(t), (p, diag, cols)
                    mirrors = SquareClass(field, 1)
                    for v in cartan_dieudonne(t):
                        mirrors = mirrors * square_class(space.vnorm(v))
                    assert cls == mirrors, (p, diag, cols)
                assert seen * 2 == orthogonal_order(diag, p)


def _bruteforce_order(diag, p):
    """|O| = 2 prod_k N_k, N_k the vectors of norm diag[k] on diag[k:],
    each count read off all p^(n-k) vectors."""
    order = 2
    for k in range(len(diag) - 1):
        order *= sum(1 for v in itertools.product(range(p), repeat=len(diag) - k)
                     if sum(d * x * x for d, x in zip(diag[k:], v)) % p == diag[k] % p)
    return order


def test_orthogonal_order_matches_bruteforce():
    for p in (3, 5, 7):
        nr = GF(p).least_nonresidue().value
        for n in range(1, 6):
            for last in (1, nr):
                diag = [1] * (n - 1) + [last]
                assert orthogonal_order(diag, p) == _bruteforce_order(diag, p), (diag, p)
        assert orthogonal_order([nr, 1, nr, 2], p) == _bruteforce_order([nr, 1, nr, 2], p)


def _short_convolution(diag, p):
    """orthogonal_order with the x = 0 term left out of each convolution."""
    order, counts = 1, [1] + [0] * (p - 1)
    for d in reversed(diag):
        counts = [sum(counts[(c - d * x * x) % p] for x in range(1, p)) for c in range(p)]
        order *= counts[d % p]
    return order


def test_census_catches_a_short_convolution(monkeypatch):
    monkeypatch.setattr(smallfields, "orthogonal_order", _short_convolution)
    for p, dim in ((3, 3), (5, 4), (7, 4)):
        with pytest.raises(InvariantViolated):
            census(p, dim)


def _drop_first(real):
    def enum(diag, p):
        it = real(diag, p)
        next(it)
        yield from it
    return enum


def _flip_one_det(real):
    """The enumerator with the determinant of its third isometry negated."""
    def enum(diag, p):
        for k, (cols, det) in enumerate(real(diag, p)):
            yield cols, (-det % p if k == 2 else det)
    return enum


def _drop_sphere_vector(real):
    """The sphere index with the last vector of the last norm's sphere
    missing, so one last-column pool holds w without -w."""
    def index(diag, p):
        vecs, spheres = real(diag, p)
        c = diag[-1] % p
        spheres[c] ^= 1 << (spheres[c].bit_length() - 1)
        return vecs, spheres
    return index


def test_census_count_check_raises_named_error(monkeypatch):
    monkeypatch.setattr(smallfields, "enumerate_isometry_columns",
                        _drop_first(enumerate_isometry_columns))
    with pytest.raises(InvariantViolated):
        census(3, 3)


def test_census_catches_a_flipped_determinant(monkeypatch):
    monkeypatch.setattr(smallfields, "enumerate_isometry_columns",
                        _flip_one_det(enumerate_isometry_columns))
    with pytest.raises(InvariantViolated, match="of det 1"):
        census(3, 3)


def _replay_keeping_dets(items, col, w, p):
    """The sign-twin replay with each det left as the twin's."""
    for cols, det in items:
        yield cols[:col] + (w,) + cols[col + 1:], det


def _replay_keeping_columns(items, col, w, p):
    """The sign-twin replay with the twin's column -w left in place."""
    for cols, det in items:
        yield cols, -det % p


@pytest.mark.parametrize("replay", [_replay_keeping_dets, _replay_keeping_columns],
                         ids=["dets-kept", "columns-kept"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_census_catches_a_mis_replayed_sign_twin(replay, p, monkeypatch):
    """Both mutants keep every count the census checks (|O|, the det-1
    count, half of SO in SO+); the strided determinant check sees them."""
    monkeypatch.setattr(smallfields, "_replay", replay)
    with pytest.raises(InvariantViolated, match="enumerated as"):
        census(p, 4)


def test_last_pool_must_be_a_pair_of_opposites(monkeypatch):
    monkeypatch.setattr(smallfields, "_sphere_index",
                        _drop_sphere_vector(smallfields._sphere_index))
    with pytest.raises(InvariantViolated, match="is not {w, -w}"):
        list(enumerate_isometry_columns([1, 1, 2], 3))
    with pytest.raises(InvariantViolated, match="is not {w, -w}"):
        census(3, 3)


def test_census_count_check_survives_assert_stripping():
    code = textwrap.dedent("""
        from isogeny_kit import smallfields
        from isogeny_kit.errors import InvariantViolated
        assert False, "asserts are live"
        real = smallfields.enumerate_isometry_columns
        real_index = smallfields._sphere_index
        real_plans = smallfields._laplace_plans

        def drop_first(diag, p):
            it = real(diag, p)
            next(it)
            yield from it

        def flip_one_det(diag, p):
            for k, (cols, det) in enumerate(real(diag, p)):
                yield cols, (-det % p if k == 2 else det)

        def drop_sphere_vector(diag, p):
            vecs, spheres = real_index(diag, p)
            c = diag[-1] % p
            spheres[c] ^= 1 << (spheres[c].bit_length() - 1)
            return vecs, spheres

        def flip_one_laplace_sign(n):
            out = real_plans(n)
            s, j = out[-1][0][0]
            out[-1][0][0] = (-s, j)
            return out

        for name, mutant, p, dim in (
                ("enumerate_isometry_columns", drop_first, 3, 3),
                ("enumerate_isometry_columns", flip_one_det, 3, 3),
                ("_sphere_index", drop_sphere_vector, 3, 3),
                ("_laplace_plans", flip_one_laplace_sign, 5, 4)):
            real_attr = getattr(smallfields, name)
            setattr(smallfields, name, mutant)
            try:
                smallfields.census(p, dim)
            except InvariantViolated as exc:
                print("raised", exc)
            setattr(smallfields, name, real_attr)
        """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(isogeny_kit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 4, out.stdout
    assert lines[0].startswith("raised enumerated")
    assert "of det 1" in lines[1]
    assert "is not {w, -w}" in lines[2]
    assert "of det 1" in lines[3]
