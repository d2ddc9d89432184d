"""Dimensions 5 and 6: the double cover on the Albert form, Q-stabilizers,
and the rho-twisted spaces."""

import random

import pytest

from isogeny_kit import spin_six
from isogeny_kit.algebras import (
    AminusVector,
    BiquatAlg,
    EtaleQuad,
    QuatAlg,
    albert_norm,
    reduced_norm_A,
)
from isogeny_kit.errors import (
    CoverInvariantViolated,
    InvariantViolated,
    IsotropicMirror,
    IsotropicQ,
)
from isogeny_kit.exactfield import GF, QQ, square_class
from isogeny_kit.linalg import Mat
from isogeny_kit.quadforms import (
    complement,
    compose_reflections,
    discriminant,
    random_isometry,
    reflect,
    spinor_norm,
)
from isogeny_kit.spin_six import (
    CoveredElem,
    TwistedSpace,
    axa_rel_check,
    cover_act_isometry,
    dim5_stabilizer,
    dim6d1_lift,
    norm_group_M2B,
    pair_lift,
    qtheta_cover_conj,
    ref6d1_map,
    ref6gen_isometry,
    ref6gen_lift,
    rhoQ_membership,
)
from isogeny_kit.spin_low import isometry_from_images, isometry_of_map
from tests_helpers import map_coeffs, run_optimized

F3 = GF(3)
F5 = GF(5)


def cover_from_aminus(v: AminusVector) -> CoveredElem:
    """(g, |g|^2) for invertible g in A^-; N(g) = (|g|^2)^2 makes it valid."""
    n = albert_norm(v)
    if n.is_zero():
        raise IsotropicMirror("vector is not invertible")
    return CoveredElem(v.embed(), n, check=False)


def theta_conj(x: CoveredElem) -> CoveredElem:
    """The order-2 automorphism (g, t) -> (t bar(g)^-1, t)."""
    return CoveredElem(x.g.bar().inverse().scale(x.t), x.t, check=False)


def make_algebra(field):
    n = field.least_nonresidue()
    return BiquatAlg(QuatAlg(field, n, field(-1)), QuatAlg(field, field(1), n))


def rand_aminus(algebra, rng):
    p = algebra.ring.p
    return algebra.aminus([rng.randrange(p) for _ in range(3)],
                          [rng.randrange(p) for _ in range(3)])


def test_cover_invariant():
    a = make_algebra(F5)
    with pytest.raises(CoverInvariantViolated):
        CoveredElem(a.one(), F5(2))
    x = CoveredElem(a.one(), F5(-1))
    assert x.t == F5(-1)


def test_cover_examples():
    a = make_algebra(F5)
    space = a.albert_space()
    # (r, r^2) acts trivially
    for r in (F5(2), F5(3)):
        x = CoveredElem(a.from_scalar(r), r * r)
        assert cover_act_isometry(x, space).matrix == Mat.identity(F5, 6)
    # (1, -1) acts as -Id
    minus = CoveredElem(a.one(), F5(-1))
    assert cover_act_isometry(minus, space).matrix == Mat.identity(F5, 6) * F5(-1)
    # (g, |g|^2) is a valid cover element for invertible g in A^-
    rng = random.Random(0)
    for _ in range(20):
        u = rand_aminus(a, rng)
        if albert_norm(u).is_zero():
            continue
        x = cover_from_aminus(u)
        assert reduced_norm_A(x.g) == x.t * x.t


def test_theta_conj_automorphism():
    a = make_algebra(F5)
    rng = random.Random(1)
    for _ in range(50):
        u, w = rand_aminus(a, rng), rand_aminus(a, rng)
        if albert_norm(u).is_zero() or albert_norm(w).is_zero():
            continue
        x = pair_lift(u, w)
        y = theta_conj(x)
        assert theta_conj(y).g == x.g and theta_conj(y).t == x.t
        assert y.t == x.t


def test_ref6d1_examples():
    a = make_algebra(F5)
    rng = random.Random(2)
    space = a.albert_space()
    done = 0
    while done < 100:
        g = rand_aminus(a, rng)
        if albert_norm(g).is_zero():
            continue
        refl = ref6d1_map(g)
        assert refl(g) == -g
        u = rand_aminus(a, rng)
        # project u onto g-perp and check fixedness
        pr = space.pairing(u.coords(), g.coords())
        uperp = u - g.scale(pr / albert_norm(g))
        assert refl(uperp) == uperp
        cols = [refl(a.aminus(space.basis_vector(i)[:3], space.basis_vector(i)[3:])).coords()
                for i in range(6)]
        assert isometry_from_images(space, cols).matrix \
            == reflect(space, g.coords()).matrix
        done += 1
    with pytest.raises(IsotropicMirror):
        isotropic = None
        while isotropic is None:
            u = rand_aminus(a, rng)
            if albert_norm(u).is_zero() and not u.embed().is_zero():
                isotropic = u
        ref6d1_map(isotropic)


def test_axa_rel():
    a = make_algebra(F5)
    rng = random.Random(3)
    assert axa_rel_check(a.one(), rand_aminus(a, rng))
    assert axa_rel_check(a.from_scalar(F5(3)), rand_aminus(a, rng))
    done = 0
    while done < 200:
        g = a.elem([rng.randrange(5) for _ in range(16)])
        from isogeny_kit.algebras import reduced_norm_A
        if reduced_norm_A(g).is_zero():
            continue
        assert axa_rel_check(g, rand_aminus(a, rng))
        done += 1


def test_dim6d1_lift():
    rng = random.Random(4)
    for field in (F3, F5):
        a = make_algebra(field)
        space = a.albert_space()
        ident = dim6d1_lift(random_isometry(space, rng, max_mirrors=1, special=True), a)
        for _ in range(30):
            t = random_isometry(space, rng, special=True)
            x = dim6d1_lift(t, a)
            assert cover_act_isometry(x, space).matrix == t.matrix
            assert spinor_norm(t) == square_class(x.t)


def test_dim6d1_minus_id_spinor():
    # -Id on the 6-dim disc-1 space lifts with t = -1 (times squares)
    a = make_algebra(F5)
    space = a.albert_space()
    from isogeny_kit.quadforms import Isometry
    minus = Isometry(space, Mat.identity(F5, 6) * F5(-1))
    x = dim6d1_lift(minus, a)
    assert square_class(x.t) == square_class(F5(-1))


def test_dim5_stabilizer_examples():
    a = make_algebra(F5)
    q = a.aminus([F5(0)] * 3, [F5(1), F5(2), F5(0)])
    assert not albert_norm(q).is_zero()
    st = dim5_stabilizer(a.from_scalar(F5(3)), q)
    assert st is not None and st.t == F5(9)
    stq = dim5_stabilizer(q.embed(), q)
    assert stq is not None and stq.t == -albert_norm(q)
    # an element not preserving FQ
    rng = random.Random(5)
    missed = 0
    for _ in range(50):
        g = a.elem([rng.randrange(5) for _ in range(16)])
        from isogeny_kit.algebras import reduced_norm_A
        if reduced_norm_A(g).is_zero():
            continue
        if dim5_stabilizer(g, q) is None:
            missed += 1
    assert missed > 0
    with pytest.raises(IsotropicQ):
        isotropic = a.aminus([F5(1), F5(0), F5(0)], [F5(0), F5(0), F5(0)])
        while not albert_norm(isotropic).is_zero():
            isotropic = rand_aminus(a, rng)
        dim5_stabilizer(a.one(), isotropic)


def test_dim5_lifts_act_on_q_fixers():
    a = make_algebra(F5)
    space = a.albert_space()
    q = a.aminus([F5(0)] * 3, [F5(1), F5(2), F5(0)])
    perp = complement(space, q.coords())
    rng = random.Random(6)
    for _ in range(100):
        mirrors = []
        while len(mirrors) < 2:
            v = [F5.zero()] * 6
            for w in perp:
                c = F5(rng.randrange(5))
                v = [x + c * y for x, y in zip(v, w)]
            if not space.vnorm(v).is_zero():
                mirrors.append(v)
        t = compose_reflections(space, mirrors)
        assert t.apply(q.coords()) == q.coords()
        x = dim6d1_lift(t, a)
        st = dim5_stabilizer(x.g, q)
        assert st is not None
        assert cover_act_isometry(st.as_cover(), space).matrix == t.matrix


def test_nqf2na_conjugation():
    a = make_algebra(F3)
    space = a.albert_space()
    q = a.aminus([F3(0)] * 3, [F3(1), F3(0), F3(0)])
    assert not albert_norm(q).is_zero()
    perp = complement(space, q.coords())
    rng = random.Random(7)
    from isogeny_kit.algebras import reduced_norm_A
    for _ in range(30):
        c = a.elem([rng.randrange(3) for _ in range(16)])
        if reduced_norm_A(c).is_zero():
            continue
        r = F3(rng.randrange(1, 3))
        new_q = (c * q.embed() * c.bar()).to_aminus().scale(r)
        # |new_q|^2 = r^2 N(c) |q|^2 is in |q|^2 (F^x)^2 N(A^x) by construction
        v = [F3.zero()] * 6
        for w in perp:
            v = [x + F3(rng.randrange(3)) * y for x, y in zip(v, w)]
        if space.vnorm(v).is_zero():
            continue
        g = pair_lift(a.aminus(v[:3], v[3:]), a.aminus(v[:3], v[3:]))
        if dim5_stabilizer(g.g, q) is None:
            continue
        conj = c * g.g * c.inverse()
        assert dim5_stabilizer(conj, new_q) is not None


def test_norm_group_m2b():
    bq5 = QuatAlg(F5, 2, 3)
    pred = norm_group_M2B(bq5)
    for r in range(1, 5):
        assert pred(F5(r))
    h = QuatAlg(QQ, -1, -1)
    predh = norm_group_M2B(h)
    assert predh(QQ(4))
    assert predh(QQ(7))       # positive: sum of four squares
    assert not predh(QQ(-1))  # negative: never a norm of the Hamilton algebra
    assert not predh(QQ(0))


def test_norm_group_m2b_indefinite_is_every_nonzero_rational():
    # Hasse-Schilling: an indefinite B over Q has Nrd(B^x) = Q^x, also for
    # values no small-height norm-form vector represents
    for alpha, beta in ((-1, 3), (2, 5)):
        pred = norm_group_M2B(QuatAlg(QQ, alpha, beta))
        for x in (1009, -1009, QQ(-7) / 3):
            assert pred(QQ(x))
        assert not pred(QQ(0))


# ---------------------------------------------------------------------------
# the twisted space
# ---------------------------------------------------------------------------

def make_twisted(field):
    a = make_algebra(field)
    e = EtaleQuad(field, field.least_nonresidue())
    q = a.aminus([field.zero()] * 3, [field(1), field(1), field.zero()])
    if albert_norm(q).is_zero():
        q = a.aminus([field.zero()] * 3, [field(1), field.zero(), field.zero()])
    return TwistedSpace(a, e, q)


def test_twisted_membership_examples():
    ts = make_twisted(F5)
    # basis members: Q-perp vectors and hQ
    for b in ts.basis:
        assert ts.contains(b)
    # u = Q is NOT a member (Q^rho = Q but the formula gives -Q)
    assert not ts.contains(ts.QE)
    # u = hQ is a member
    assert ts.contains(ts.QE.scale(ts.E.gen0()))
    # membership is F-linear
    rng = random.Random(8)
    for _ in range(40):
        u = ts.from_vec([F5(rng.randrange(5)) for _ in range(6)])
        w = ts.from_vec([F5(rng.randrange(5)) for _ in range(6)])
        assert ts.contains(u + w)


def test_twisted_space_shape():
    for field in (F3, F5):
        ts = make_twisted(field)
        assert ts.space.dim == 6
        assert discriminant(ts.space) == square_class(field.least_nonresidue())


def test_rhoq_membership_examples():
    ts = make_twisted(F5)
    # r in F^x: member with t = r^2, trivial action
    m = rhoQ_membership(ts, ts.AE.from_scalar(ts.E.from_scalar(F5(2))))
    assert m is not None and m.t == F5(4)
    assert (isometry_of_map(ts.space, m.act_on, ts.to_vec, ts.from_vec).matrix
            == Mat.identity(F5, 6))
    # r in E_0: member with t = -r^2, acts as -Id
    h = ts.E.gen0()
    m2 = rhoQ_membership(ts, ts.AE.from_scalar(h))
    assert m2 is not None and m2.t == -((h * h).scalar_part())
    assert (isometry_of_map(ts.space, m2.act_on, ts.to_vec, ts.from_vec).matrix
            == Mat.identity(F5, 6) * F5(-1))
    # g h Q^-1 for anisotropic twisted g: member with t = d |g|^2 / |Q|^2
    rng = random.Random(9)
    d = (h * h).scalar_part()
    done = 0
    while done < 30:
        g = ts.from_vec([F5(rng.randrange(5)) for _ in range(6)])
        if ts.vnorm_of(g).is_zero():
            continue
        mem = rhoQ_membership(ts, g.scale(h) * ts.QE.inverse())
        assert mem is not None
        assert mem.t == d * ts.vnorm_of(g) / ts.q_norm
        done += 1


def test_rhoq_action_preserves_structure():
    ts = make_twisted(F3)
    h = ts.E.gen0()
    rng = random.Random(10)
    done = 0
    while done < 40:
        g = ts.from_vec([F3(rng.randrange(3)) for _ in range(6)])
        if ts.vnorm_of(g).is_zero():
            continue
        mem = rhoQ_membership(ts, g.scale(h) * ts.QE.inverse())
        u = ts.from_vec([F3(rng.randrange(3)) for _ in range(6)])
        img = mem.act_on(u)
        assert ts.contains(img)
        assert ts.vnorm_of(img) == ts.vnorm_of(u)
        done += 1


def test_ref6gen_matches_reflect():
    for field in (F3, F5):
        ts = make_twisted(field)
        rng = random.Random(11)
        done = 0
        while done < 60:
            coords = [field(rng.randrange(field.p)) for _ in range(6)]
            g = ts.from_vec(coords)
            if ts.vnorm_of(g).is_zero():
                continue
            assert ref6gen_isometry(ts, g).matrix \
                == reflect(ts.space, coords).matrix
            done += 1


def test_ref6gen_examples():
    ts = make_twisted(F5)
    rng = random.Random(12)
    while True:
        coords = [F5(rng.randrange(5)) for _ in range(6)]
        g = ts.from_vec(coords)
        if not ts.vnorm_of(g).is_zero():
            break
    member, refl = ref6gen_lift(ts, g)
    assert refl(g) == g.scale(ts.E.from_scalar(F5(-1)))
    # u perpendicular to g stays fixed
    u = ts.from_vec([F5(rng.randrange(5)) for _ in range(6)])
    pr = ts.space.pairing(ts.to_vec(u), coords)
    uperp = u - g.scale(ts.E.from_scalar(pr / ts.vnorm_of(g)))
    assert refl(uperp) == uperp


def test_ref6gen_similitude_failure_is_a_named_error(monkeypatch):
    """With rhoQ_membership rejecting every element, ref6gen_lift raises
    InvariantViolated, also under python -O."""
    ts = make_twisted(F5)
    g = next(b for b in ts.basis if not ts.vnorm_of(b).is_zero())
    monkeypatch.setattr(spin_six, "rhoQ_membership", lambda ts, g: None)
    with pytest.raises(InvariantViolated, match="similitude test"):
        ref6gen_lift(ts, g)
    out = run_optimized("""
        import test_spin_six as t
        from isogeny_kit import spin_six
        from isogeny_kit.errors import InvariantViolated
        assert False, "asserts are live"
        ts = t.make_twisted(t.F5)
        g = next(b for b in ts.basis if not ts.vnorm_of(b).is_zero())
        spin_six.rhoQ_membership = lambda ts, g: None
        try:
            spin_six.ref6gen_lift(ts, g)
        except InvariantViolated as exc:
            print("raised", exc)
        """)
    assert out == "raised g h Q^-1 failed the similitude test\n"


def test_qtheta_cover_conj():
    ts = make_twisted(F5)
    rng = random.Random(13)
    a = ts.A
    done = 0
    while done < 40:
        u, w = rand_aminus(a, rng), rand_aminus(a, rng)
        if albert_norm(u).is_zero() or albert_norm(w).is_zero():
            continue
        x = pair_lift(u, w)
        xe = CoveredElem(map_coeffs(x.g, ts.E.from_scalar, ts.AE),
                         ts.E.from_scalar(x.t), check=False)
        y = qtheta_cover_conj(ts, xe)
        z = qtheta_cover_conj(ts, y)
        assert z.g == xe.g and z.t == xe.t
        assert y.t == xe.t
        done += 1


def test_ind2int_t2_subgroup_closed():
    ts = make_twisted(F5)
    h = ts.E.gen0()
    rng = random.Random(14)
    members = []
    while len(members) < 20:
        g = ts.from_vec([F5(rng.randrange(5)) for _ in range(6)])
        if ts.vnorm_of(g).is_zero():
            continue
        members.append(rhoQ_membership(ts, g.scale(h) * ts.QE.inverse()))
    for i in range(0, 18, 2):
        prod = members[i].g * members[i + 1].g
        mem = rhoQ_membership(ts, prod)
        assert mem is not None
        assert mem.t == members[i].t * members[i + 1].t
