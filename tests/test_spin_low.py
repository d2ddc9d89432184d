"""Dimensions 1-4: actions, kernels, reflections, lifts, alternatives."""

import random

import pytest

from isogeny_kit.algebras import EtaleQuad, QuatAlg
from isogeny_kit.errors import NonInvertible, NormMismatch, NotSpecialOrthogonal
from isogeny_kit.exactfield import GF, QQ, square_class
from isogeny_kit.linalg import Mat
from isogeny_kit.quadforms import (
    QuadSpace,
    discriminant,
    find_isotropic,
    random_isometry,
    reflect,
    spinor_norm,
)
from isogeny_kit.spin_low import (
    Dim2Model,
    Dim3Model,
    Dim4D1Model,
    Dim4Model,
    alt3_action,
    alt3_symmetric_image,
    alt4_action,
    isometry_from_images,
    isometry_of_map,
    mat2_of_split_quat,
    r2_matrix,
    split_quat_of_mat2,
)

from tests_helpers import identity_isometry

F3 = GF(3)
F5 = GF(5)


def test_dim2_act_examples():
    e = EtaleQuad(F5)
    model = Dim2Model(e)
    ident = Mat.identity(F5, 2)
    assert model.act(e.from_scalar(F5(3))).matrix == ident
    # split E, g = (r, 1): multiplication by r on E^1, spinor norm r
    r = F5(2)
    g = e.from_xy(r, F5(1))
    for t in (F5(1), F5(2), F5(3)):
        u = e.from_xy(t, t.inverse())
        assert model.act_on(g, u) == e.from_xy(r * t, (r * t).inverse()) * \
            e.from_scalar((r * t) * (r * t).inverse())
    assert spinor_norm(model.act(g)) == square_class(r)
    # F3(sqrt 2), g = sqrt(2): z -> -z
    e2 = EtaleQuad(F3, 2)
    m2 = Dim2Model(e2)
    g2 = e2.gen0()
    assert m2.act(g2).matrix == Mat.identity(F3, 2) * F3(-1)
    with pytest.raises(NonInvertible):
        m2.act_on(e2.zero(), e2.one())


def test_dim2_kernel_exhaustive():
    for field in (F3, F5):
        for d in (field(1), field.least_nonresidue()):
            e = EtaleQuad(field, d)
            model = Dim2Model(e)
            ident = Mat.identity(field, 2)
            for g in e.units():
                assert (model.act(g).matrix == ident) == g.is_scalar()


def test_dim2_reflection():
    e = EtaleQuad(F5, 2)
    model = Dim2Model(e)
    # g = 1: the reflection inverting 1 is diag(-1, 1) in basis (1, h)
    r = model.reflection(e.one())
    assert r.matrix == Mat(F5, [[F5(-1), F5(0)], [F5(0), F5(1)]])
    # g = h: inverts h, fixes 1
    rh = model.reflection(e.gen0())
    assert rh.matrix == Mat(F5, [[F5(1), F5(0)], [F5(0), F5(-1)]])
    rng = random.Random(0)
    done = 0
    while done < 60:
        coords = [F5(rng.randrange(5)) for _ in range(2)]
        g = model.from_vec(coords)
        if g.norm().is_zero():
            continue
        got = model.reflection(g)
        assert got.matrix == reflect(model.space, coords).matrix
        assert (got * got).matrix == Mat.identity(F5, 2)
        done += 1


def test_dim12_spinor_remark_exhaustive():
    for field in (F3, F5):
        for d in (field(1), field.least_nonresidue()):
            e = EtaleQuad(field, d)
            model = Dim2Model(e)
            for u in e.norm_one_elements():
                iso = isometry_from_images(
                    model.space,
                    [model.to_vec(u * model.from_vec(model.space.basis_vector(i)))
                     for i in range(2)])
                assert spinor_norm(iso) == model.spinor_of_norm_one(u)
            # at u = -1 the value is the determinant class -d
            from isogeny_kit.quadforms import determinant_class
            assert model.spinor_of_norm_one(-e.one()) \
                == determinant_class(model.space)


def test_iso2_isotropic_iff_trivial_discriminant():
    for field in (F3, F5):
        units = range(1, field.p)
        for a in units:
            for b in units:
                s = QuadSpace.diagonal(field, [a, b])
                isotropic = find_isotropic(s) is not None
                assert isotropic == discriminant(s).is_trivial()


def test_dim3_act_examples():
    bq = QuatAlg(QQ, -1, -1)
    model = Dim3Model(bq)
    assert model.act(bq.from_scalar(QQ(5))).matrix == Mat.identity(QQ, 3)
    gi = model.act(bq.i())
    assert gi.matrix == Mat(QQ, [[QQ(1), QQ(0), QQ(0)],
                                 [QQ(0), QQ(-1), QQ(0)],
                                 [QQ(0), QQ(0), QQ(-1)]])
    # reflection = action composed with -Id
    rng = random.Random(1)
    b5 = QuatAlg(F5, 2, 3)
    m5 = Dim3Model(b5)
    done = 0
    while done < 60:
        coords = [F5(rng.randrange(5)) for _ in range(3)]
        g = m5.from_vec(coords)
        if g.norm().is_zero():
            continue
        assert m5.reflection(g).matrix == reflect(m5.space, coords).matrix
        done += 1


def test_dim3_kernel_exhaustive_f3():
    bq = QuatAlg(F3, 2, 2)
    model = Dim3Model(bq)
    ident = Mat.identity(F3, 3)
    for g in bq.elements():
        if g.norm().is_zero():
            continue
        trivial = model.act(g).matrix == ident
        assert trivial == all(c.is_zero() for c in g.c[1:])


def test_dim3_surjectivity_f3():
    """Image of the action on all of B^x equals SO(B_0), of order 24."""
    from isogeny_kit.smallfields import enumerate_isometries
    bq = QuatAlg(F3, 2, -1)
    model = Dim3Model(bq)
    images = set()
    for g in bq.elements():
        if g.norm().is_zero():
            continue
        m = model.act(g)
        images.add(tuple(tuple(e.value for e in row) for row in m.matrix.rows))
    so = {tuple(tuple(e.value for e in row) for row in i.matrix.rows)
          for i in enumerate_isometries(model.space) if i.det() == F3(1)}
    assert len(so) == 24
    assert images == so


def test_dim3_lift():
    rng = random.Random(2)
    for field in (F3, F5):
        bq = QuatAlg(field, field.least_nonresidue(), field(-1))
        model = Dim3Model(bq)
        ident = model.lift(identity_isometry(model.space))
        assert model.act(ident).matrix == Mat.identity(field, 3)
        for _ in range(50):
            t = random_isometry(model.space, rng, special=True)
            g = model.lift(t)
            assert model.act(g).matrix == t.matrix
            assert spinor_norm(t) == square_class(g.norm())
        with pytest.raises(NotSpecialOrthogonal):
            model.lift(model.reflection(bq.i()))


def test_dim3_pair_lift_is_product():
    # composing reflections in i and j lifts to the product ij
    bq = QuatAlg(F5, -1, -1)
    model = Dim3Model(bq)
    ri = model.reflection(bq.i())
    rj = model.reflection(bq.j())
    assert (ri * rj).matrix == model.act(bq.i() * bq.j()).matrix


def test_dim4_act_examples():
    for field in (F3, F5):
        bq = QuatAlg(field, field.least_nonresidue(), field(-1))
        for d in (field(1), field.least_nonresidue()):
            model = Dim4Model(bq, EtaleQuad(field, d))
            ident = Mat.identity(field, 4)
            assert model.act(model.BE.from_scalar(field(2))).matrix == ident
            # r in E_0 acts as -Id
            h = model.E.gen0()
            assert model.act(model.BE.from_scalar(h)).matrix == ident * field(-1)
            # iota is an isometry of determinant -1
            iota = isometry_of_map(model.space, lambda x: x.bar(),
                                   model.to_vec, model.from_vec)
            assert iota.det() == field(-1)


def test_dim4_norm_not_in_base_field():
    from isogeny_kit.errors import NormNotInBaseField
    bq = QuatAlg(F5, 2, 3)
    model = Dim4Model(bq, EtaleQuad(F5, 2))
    h = model.E.gen0()
    g = model.BE.from_scalar(h + model.E.one())   # norm (1+h)(1-h) not in F
    # N(g) = (1 + h)^2 which is not F-rational
    with pytest.raises(NormNotInBaseField):
        model.act_on(g, model.from_vec([F5(1), F5(0), F5(0), F5(0)]))


def test_dim4_reflection_and_lift():
    rng = random.Random(3)
    bq = QuatAlg(F5, 2, 3)
    model = Dim4Model(bq, EtaleQuad(F5, 2))
    done = 0
    while done < 50:
        coords = [F5(rng.randrange(5)) for _ in range(4)]
        if model.space.vnorm(coords).is_zero():
            continue
        g = model.from_vec(coords)
        assert model.reflection(g).matrix == reflect(model.space, coords).matrix
        done += 1
    for _ in range(25):
        t = random_isometry(model.space, rng, special=True)
        g = model.lift(t)
        assert model.act(g).matrix == t.matrix
        assert spinor_norm(t) == square_class(model.norm_in_base(g))


def test_dim4_kernel_sampled():
    rng = random.Random(4)
    bq = QuatAlg(F3, 2, 2)
    model = Dim4Model(bq, EtaleQuad(F3, 2))
    ident = Mat.identity(F3, 4)
    trivial = []
    for _ in range(300):
        g = model.BE.elem([model.E.from_xy(F3(rng.randrange(3)), F3(rng.randrange(3)))
                           for _ in range(4)])
        n = g.norm()
        if not n.is_scalar() or n.scalar_part().is_zero():
            continue
        if model.act(g).matrix == ident:
            trivial.append(g)
    for g in trivial:
        assert all(c.is_zero() for c in g.c[1:]) and g.c[0].is_scalar()


def test_iso4_isotropy_examples():
    # over F_p: B_E^- is always isotropic (E always splits B)
    for field in (F3, F5):
        bq = QuatAlg(field, field.least_nonresidue(), field(-1))
        model = Dim4Model(bq, EtaleQuad(field, field.least_nonresidue()))
        assert find_isotropic(model.space) is not None
    # over Q with B = (-1,-1): E = Q(sqrt d), d > 0 does not split B and
    # the space diag(d, 1, 1, 1) is definite (anisotropic)
    bq = QuatAlg(QQ, -1, -1)
    for d in (2, 3, 5):
        model = Dim4Model(bq, EtaleQuad(QQ, d))
        assert find_isotropic(model.space) is None
    # E = Q(i) splits (-1,-1) and the space is isotropic
    model = Dim4Model(bq, EtaleQuad(QQ, -1))
    assert find_isotropic(model.space) is not None


def test_dim4d1_examples():
    bq = QuatAlg(F5, 2, 3)
    model = Dim4D1Model(bq)
    rng = random.Random(5)
    g = bq.elem([1, 2, 0, 1])
    assert not g.norm().is_zero()
    # (g, g) is conjugation and fixes 1
    assert model.act_on(g, g, bq.one()) == bq.one()
    # (g, 1) with g of norm 1: left multiplication preserves the norm
    while True:
        cand = bq.elem([rng.randrange(5) for _ in range(4)])
        if cand.norm() == F5(1):
            g1 = cand
            break
    iso = model.act(g1, bq.one())
    assert iso.is_valid()
    with pytest.raises(NormMismatch):
        model.act_on(bq.i(), bq.one(), bq.one())


def test_alt3():
    bq = QuatAlg(F5, 1, 1)
    model = Dim3Model(bq)
    rng = random.Random(6)
    # identity of GL_2 acts trivially
    ident = Mat.identity(F5, 2)
    x = model.from_vec([F5(1), F5(2), F5(1)])
    assert alt3_action(ident, alt3_symmetric_image(x)) == alt3_symmetric_image(x)
    # diag(t, -t) goes to a symmetric matrix of the same norm (minus det)
    for t in (F5(1), F5(2)):
        u = split_quat_of_mat2(bq, Mat(F5, [[t, F5(0)], [F5(0), -t]]))
        sym = alt3_symmetric_image(u)
        assert sym.T == sym
        assert -sym.det() == -mat2_of_split_quat(u).det()
    for _ in range(100):
        g = Mat(F5, [[F5(rng.randrange(5)) for _ in range(2)] for _ in range(2)])
        if g.det().is_zero():
            continue
        u = model.from_vec([F5(rng.randrange(5)) for _ in range(3)])
        gq = split_quat_of_mat2(bq, g)
        assert alt3_symmetric_image(model.act_on(gq, u)) \
            == alt3_action(g, alt3_symmetric_image(u))


def test_alt4_split_case():
    bq = QuatAlg(F5, 1, 1)
    model = Dim4D1Model(bq)
    r2 = r2_matrix(F5)
    rng = random.Random(7)
    done = 0
    while done < 50:
        g = Mat(F5, [[F5(rng.randrange(5)) for _ in range(2)] for _ in range(2)])
        h = Mat(F5, [[F5(rng.randrange(5)) for _ in range(2)] for _ in range(2)])
        if g.det().is_zero() or g.det() != h.det():
            continue
        gq, hq = split_quat_of_mat2(bq, g), split_quat_of_mat2(bq, h)
        x = bq.elem([rng.randrange(5) for _ in range(4)])
        lhs = mat2_of_split_quat(model.act_on(gq, hq, x)) * r2
        rhs = alt4_action(g, h, mat2_of_split_quat(x) * r2)
        assert lhs == rhs
        done += 1
