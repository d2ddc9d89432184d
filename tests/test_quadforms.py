"""Quadratic spaces: diagonalization, isotropy, Witt decomposition,
reflections, Cartan-Dieudonne, spinor norm."""

import random

import pytest

from isogeny_kit.errors import IsotropicMirror, NoIsotropicVector
from isogeny_kit.exactfield import GF, QQ, square_class
from isogeny_kit.linalg import Mat
from isogeny_kit.quadforms import (
    QuadSpace,
    cartan_dieudonne,
    compose_reflections,
    determinant_class,
    diagonalize,
    discriminant,
    find_isotropic,
    hyperbolic_plane,
    random_isometry,
    reflect,
    spinor_norm,
    split_hyperbolic,
    witt_decompose,
)

F3 = GF(3)
F5 = GF(5)


def test_pairing_examples():
    h = hyperbolic_plane(QQ)
    assert h.vnorm([QQ(1), QQ(0)]).is_zero()
    assert h.pairing([QQ(1), QQ(0)], [QQ(0), QQ(1)]) == QQ(1)
    s = QuadSpace.diagonal(F3, [1, -1])
    assert s.vnorm([F3(1), F3(1)]).is_zero()


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
    ident = Isometry.identity(s)
    assert cartan_dieudonne(ident) == []
    r = reflect(s, [F5(1), F5(1)])
    mirrors = cartan_dieudonne(r)
    assert len(mirrors) % 2 == 1
    assert compose_reflections(s, mirrors) == r
    minus = Isometry(s, Mat.identity(F5, 2) * F5(-1))
    mirrors = cartan_dieudonne(minus)
    assert len(mirrors) == 2
    assert compose_reflections(s, mirrors) == minus


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
    assert spinor_norm(Isometry.identity(s)).is_trivial()
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
