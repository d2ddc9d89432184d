"""Exterior squares, the Pfaffian, and the explicit wedge subspaces."""

import random

import pytest

from isogeny_kit.algebras import BiquatAlg, EtaleQuad, QuatAlg, albert_norm
from isogeny_kit.errors import BadParameters, NotAntisymmetric
from isogeny_kit.exactfield import GF
from isogeny_kit.linalg import Mat
from isogeny_kit.wedge import (
    AlbertWedgeMap,
    antisym_to_wedge,
    in_span,
    lambda2_matrix,
    pfaffian,
    s_matrix,
    wedge_pairing,
    wedge_space,
    wedge_subspace,
    wedge_to_antisym,
    _POS,
)

F3 = GF(3)
F5 = GF(5)


def unit(field, ij, c=1):
    v = [field(0)] * 6
    v[_POS[ij]] = field(c)
    return v


def test_wedge_to_antisym_examples():
    m = wedge_to_antisym(F5, unit(F5, (0, 1)))
    expect = Mat.zero(F5, 4, 4)
    rows = [r[:] for r in expect.rows]
    rows[0][1] = F5(1)
    rows[1][0] = F5(-1)
    assert m == Mat(F5, rows)
    zero = wedge_to_antisym(F5, [F5(0)] * 6)
    assert zero == Mat.zero(F5, 4, 4)
    assert antisym_to_wedge(m) == unit(F5, (0, 1))
    with pytest.raises(NotAntisymmetric):
        antisym_to_wedge(Mat.identity(F5, 4))


def test_pairing_examples():
    # <e1^e2, e3^e4> = 1: matches the Pfaffian cross term
    assert wedge_pairing(F5, unit(F5, (0, 1)), unit(F5, (2, 3))) == F5(1)
    assert wedge_pairing(F5, unit(F5, (0, 2)), unit(F5, (1, 3))) == F5(-1)
    assert wedge_pairing(F5, unit(F5, (0, 3)), unit(F5, (1, 2))) == F5(1)


def test_pfaffian_examples():
    # block diag ((0,1),(-1,0)) + ((0,1),(-1,0)): pf = 1
    u = [F5(1), F5(0), F5(0), F5(0), F5(0), F5(1)]
    t = wedge_to_antisym(F5, u)
    assert pfaffian(t) == F5(1)
    assert pfaffian(Mat.zero(F5, 4, 4)) == F5(0)
    rng = random.Random(0)
    for _ in range(60):
        v = [F5(rng.randrange(5)) for _ in range(6)]
        t = wedge_to_antisym(F5, v)
        assert pfaffian(t) * pfaffian(t) == t.det()
    with pytest.raises(NotAntisymmetric):
        pfaffian(Mat.identity(F5, 4))


def test_naturality_and_det_multiplier():
    rng = random.Random(1)
    for field in (F3, F5):
        for _ in range(150):
            g = Mat(field, [[field(rng.randrange(field.p)) for _ in range(4)]
                            for _ in range(4)])
            u = [field(rng.randrange(field.p)) for _ in range(6)]
            w = [field(rng.randrange(field.p)) for _ in range(6)]
            l2 = lambda2_matrix(g)
            assert wedge_to_antisym(field, l2.apply(u)) \
                == g * wedge_to_antisym(field, u) * g.T
            assert wedge_pairing(field, l2.apply(u), l2.apply(w)) \
                == g.det() * wedge_pairing(field, u, w)
            t = wedge_to_antisym(field, u)
            assert pfaffian(g * t * g.T) == g.det() * pfaffian(t)


def test_pairing_is_polarized_pfaffian():
    rng = random.Random(2)
    for _ in range(50):
        u = [F5(rng.randrange(5)) for _ in range(6)]
        w = [F5(rng.randrange(5)) for _ in range(6)]
        tu = wedge_to_antisym(F5, u)
        tw = wedge_to_antisym(F5, w)
        tuw = wedge_to_antisym(F5, [a + b for a, b in zip(u, w)])
        assert wedge_pairing(F5, u, w) == pfaffian(tuw) - pfaffian(tu) - pfaffian(tw)


def random_sl4(field, rng):
    """Product of elementary matrices: determinant 1."""
    m = Mat.identity(field, 4)
    for _ in range(6):
        i, j = rng.randrange(4), rng.randrange(4)
        if i == j:
            continue
        e = Mat.identity(field, 4)
        rows = [r[:] for r in e.rows]
        rows[i][j] = field(rng.randrange(field.p))
        m = m * Mat(field, rows)
    return m


def random_sp4(field, q_mat, rng):
    """Product of symplectic transvections for the alternating form q_mat."""
    m = Mat.identity(field, 4)
    for _ in range(5):
        v = [field(rng.randrange(field.p)) for _ in range(4)]
        lam = field(rng.randrange(field.p))
        cols = []
        for k in range(4):
            e = [field(1 if i == k else 0) for i in range(4)]
            om = sum((q_mat.apply(e)[i] * v[i] for i in range(4)), field.zero())
            cols.append([e[i] + lam * om * v[i] for i in range(4)])
        t = Mat(field, [[cols[j][i] for j in range(4)] for i in range(4)])
        m = m * t
    return m


def test_splitf_subspace():
    sub = wedge_subspace(F5, "splitF")
    gens = sub["generators"]
    assert len(gens) == 5
    # contains e1^e3 - e2^e4
    target = [F5(0)] * 6
    target[_POS[(0, 2)]] = F5(1)
    target[_POS[(1, 3)]] = F5(-1)
    assert any(g == target for g in gens)
    # the 5-dim space is the orthogonal complement of Q = e1^e3 + e2^e4
    q = sub["q_direction"]
    for g in gens:
        assert wedge_pairing(F5, g, q).is_zero()
    # sampled Sp4 elements (for the form attached to Q) preserve the
    # subspace and its Gram; SL4 elements scale nothing (det 1)
    rng = random.Random(3)
    q_mat = wedge_to_antisym(F5, q)
    space = wedge_space(F5)
    for _ in range(25):
        g = random_sp4(F5, q_mat, rng)
        assert g * q_mat * g.T == q_mat
        l2 = lambda2_matrix(g)
        imgs = [l2.apply(gen) for gen in gens]
        for a, ia in zip(gens, imgs):
            assert in_span(F5, gens, ia)
            for b, ib in zip(gens, imgs):
                assert wedge_pairing(F5, ia, ib) == wedge_pairing(F5, a, b)
        s = random_sl4(F5, rng)
        l2s = lambda2_matrix(s)
        u = [F5(rng.randrange(5)) for _ in range(6)]
        w = [F5(rng.randrange(5)) for _ in range(6)]
        assert wedge_pairing(F5, l2s.apply(u), l2s.apply(w)) \
            == wedge_pairing(F5, u, w)


def test_splite_subspace():
    d = F5.least_nonresidue()
    sub = wedge_subspace(F5, "splitE", d=d, delta=F5(3), eps=F5(2))
    ring = sub["ring"]
    gens = sub["generators"]
    assert len(gens) == 6
    # 6th summand: E_0 (e3^e4 - delta e1^e2)
    h = ring.root(0)
    want = [ring.zero()] * 6
    want[_POS[(2, 3)]] = h
    want[_POS[(0, 1)]] = -h * ring.from_scalar(F5(3))
    assert gens[5] == want
    # the F-Gram is well defined and nondegenerate
    assert not sub["gram"].det().is_zero()
    with pytest.raises(BadParameters):
        wedge_subspace(F5, "splitE", d=F5(4), delta=F5(3), eps=F5(2))


def test_splite_su_sampling():
    """Unitary reflections of the Hermitian form preserve the subspace."""
    field = F5
    d = field.least_nonresidue()
    eps, delta = field(2), field(3)
    e = EtaleQuad(field, d)
    sub = wedge_subspace(field, "splitE", d=d, delta=delta, eps=eps)
    ring, gens = sub["ring"], sub["generators"]
    herm = [delta * eps, -eps, -delta, field(1)]
    rng = random.Random(4)

    def hform(x, y):
        acc = e.zero()
        for c, a, b in zip(herm, x, y):
            acc = acc + a * b.conj() * e.from_scalar(c)
        return acc

    def unitary_reflection(v, sigma):
        nv = hform(v, v)
        cols = []
        for k in range(4):
            ek = [e.from_scalar(field(1 if i == k else 0)) for i in range(4)]
            coef = (sigma - e.one()) * hform(ek, v) / nv
            cols.append([ek[i] + coef * v[i] for i in range(4)])
        return Mat(e, [[cols[j][i] for j in range(4)] for i in range(4)])

    def to_tower(m):
        h = ring.root(0)
        return Mat(ring, [[ring.from_scalar(z.x) + h * ring.from_scalar(z.y) for z in r]
                          for r in m.rows])

    done = 0
    while done < 12:
        v = [e.from_xy(field(rng.randrange(5)), field(rng.randrange(5)))
             for _ in range(4)]
        if hform(v, v).norm().is_zero():
            continue
        sigma = None
        for z in e.norm_one_elements():
            if z != e.one():
                sigma = z
                break
        t1 = unitary_reflection(v, sigma)
        # unitarity for column-vector matrices: T^t M T^rho = M
        mherm = Mat(e, [[e.from_scalar(herm[i]) if i == j else e.zero()
                         for j in range(4)] for i in range(4)])
        assert t1.T * mherm * Mat(e, [[z.conj() for z in r] for r in t1.rows]) == mherm
        # pair with the conjugate rotation to land in SU
        w = [e.from_xy(field(rng.randrange(5)), field(rng.randrange(5)))
             for _ in range(4)]
        if hform(w, w).norm().is_zero():
            continue
        t2 = unitary_reflection(w, sigma.inverse())
        su = t1 * t2
        l2 = lambda2_matrix(to_tower(su))
        imgs = [l2.apply(g) for g in gens]
        for a, ia in zip(gens, imgs):
            assert in_span(field, gens, ia)
            for b, ib in zip(gens, imgs):
                pa = wedge_pairing(ring, ia, ib)
                pb = wedge_pairing(ring, a, b)
                assert pa == pb
        done += 1


def test_iso_subspace():
    k = F5.least_nonresidue()
    sub6 = wedge_subspace(F5, "iso", k=k, eps=F5(3), delta=F5(1))
    assert len(sub6["generators"]) == 6
    sub5 = wedge_subspace(F5, "iso", k=k, eps=F5(3), delta=F5(1), d=None)
    d = F5.least_nonresidue()
    subt = wedge_subspace(F5, "iso", k=k, eps=F5(3), delta=F5(1), d=d)
    assert len(subt["generators"]) == 6
    assert not subt["gram"].det().is_zero()


def test_gen_subspace_albert_images():
    """The Albert-form image inside Lambda^2 (KL)^4 lands exactly on the
    stated direct sum, with Q = 1 (x) j_C on the e3^e4 - delta e1^e2 ray."""
    field = F5
    k, eps = field.least_nonresidue(), field(3)
    l, delta = field.least_nonresidue(), field(2)
    bq = QuatAlg(field, k, eps)
    cq = QuatAlg(field, l, delta)
    a = BiquatAlg(bq, cq)
    awm = AlbertWedgeMap(a)
    sub = wedge_subspace(field, "gen", k=k, l=l, eps=eps, delta=delta)
    ring, gens = sub["ring"], sub["generators"]
    assert ring == awm.tower
    rng = random.Random(5)
    # pf(image) = -|u|^2, and every image lies in the F-span of the list
    for _ in range(50):
        u = a.aminus([rng.randrange(5) for _ in range(3)],
                     [rng.randrange(5) for _ in range(3)])
        wc = awm.wedge_coords(u.embed())
        t = wedge_to_antisym(ring, wc)
        pf = pfaffian(t)
        assert pf.is_scalar() and pf.scalar_part() == -albert_norm(u)
        assert in_span(field, gens, wc)
    # Q = 1 (x) j_C maps onto the q_direction ray
    q = a.aminus([field.zero()] * 3, [field.zero(), field(1), field.zero()])
    wc = awm.wedge_coords(q.embed())
    qdir = sub["q_direction"]
    assert in_span(field, [qdir], wc)
    # sampled invertible elements of A preserve the subspace up to N(g)
    from isogeny_kit.algebras import reduced_norm_A
    done = 0
    while done < 10:
        g = a.elem([rng.randrange(5) for _ in range(16)])
        n = reduced_norm_A(g)
        if n.is_zero():
            continue
        gm = awm.mat4(g)
        l2 = lambda2_matrix(gm)
        for gen in gens:
            img = l2.apply(gen)
            # the Lambda^2 action of the A^x-image scales the Gram by N(g);
            # membership in the F-span is preserved
            assert in_span(field, gens, img)
        done += 1


def test_gen_subspace_twisted_variant():
    field = F5
    k, eps, l, delta = field(2), field(3), field(2), field(2)
    d = field.least_nonresidue()
    sub = wedge_subspace(field, "gen", k=k, l=l, eps=eps, delta=delta, d=d)
    assert len(sub["generators"]) == 6  # 5-dim stabilizer space + E_0 ray
    assert not sub["gram"].det().is_zero()


def test_s_matrix_shape():
    # S = r (x) r is symmetric and squares to the identity
    s = s_matrix(F5)
    assert s.T == s
    assert s * s == Mat.identity(F5, 4)
