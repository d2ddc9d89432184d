"""Dimensions 7 and 8: GSp membership, the generic form, phi and psi, the
action on A^- + H, stabilizers, triality, and the rho-twisted groups."""

import random

import pytest

from isogeny_kit import spin_eight

from isogeny_kit.algebras import (
    BiquatAlg,
    BiquatElem,
    EtaleQuad,
    QuatAlg,
    albert_norm,
    albert_pair,
    reduced_norm_A,
    theta,
)
from isogeny_kit.errors import (
    InvariantViolated,
    IsotropicMirror,
    NonInvertible,
    SingularReparam,
)
from isogeny_kit.exactfield import GF, QQ, is_square, sqrt_exact, square_class
from isogeny_kit.linalg import Mat
from isogeny_kit.quadforms import random_isometry, reflect, spinor_norm
from isogeny_kit.spin_low import isometry_from_images
from isogeny_kit.spin_six import TwistedSpace
from isogeny_kit.spin_eight import (
    CoveredGSpElem,
    D,
    GenForm,
    M2A,
    Twisted8,
    Vec8,
    act8,
    act8_isometry,
    comp_reparam,
    cover_identity,
    cover_inverse,
    cover_mul,
    dim7_q,
    dim7_stab_membership,
    dim8_lift,
    deltadep_conjugate_norm,
    deltadep_conjugate_scalar,
    eq_sqrt,
    gsp_decompose,
    gsp_membership,
    hpsi_gsp_relation,
    normsq_check,
    phi,
    psi,
    ref8_apply,
    ref8_lift,
    ref8igen_apply,
    ref8igen_lift,
    reduced_norm_M2A,
    one_plus_eta_omega_multiplier,
    triality_kernels,
    vec8_from_coords,
    vec8_space,
    _norm8_split_oracle,
)
from tests_helpers import SplitIso, run_optimized

F3 = GF(3)
F5 = GF(5)


def make_algebra(field):
    n = field.least_nonresidue()
    return BiquatAlg(QuatAlg(field, n, field(-1)), QuatAlg(field, field(1), n))


def rand_aminus(algebra, rng):
    p = algebra.ring.p
    return algebra.aminus([rng.randrange(p) for _ in range(3)],
                          [rng.randrange(p) for _ in range(3)])


def rand_cover(algebra, rng, k=3):
    field = algebra.ring
    zero_v = algebra.aminus([field.zero()] * 3, [field.zero()] * 3)
    x = cover_identity(algebra)
    for _ in range(k):
        kind = rng.randrange(3)
        if kind == 0:
            gf = GenForm(algebra, rand_aminus(algebra, rng), algebra.one(),
                         zero_v, zero_v, field(1))
            y = CoveredGSpElem(gf, field(1), check=False)
        elif kind == 1:
            gf = GenForm(algebra, zero_v, algebra.one(), zero_v,
                         rand_aminus(algebra, rng), field(1))
            y = CoveredGSpElem(gf, field(1), check=False)
        else:
            while True:
                a = algebra.elem([rng.randrange(field.p) for _ in range(16)])
                na = reduced_norm_A(a)
                if not na.is_zero() and is_square(na):
                    break
            gf = GenForm(algebra, zero_v, a, zero_v, zero_v,
                         field(rng.randrange(1, field.p)))
            y = CoveredGSpElem(gf, sqrt_exact(na), check=False)
        x = cover_mul(x, y)
    return x


def test_vec8_examples():
    a = make_algebra(F5)
    zero_u = a.aminus([F5(0)] * 3, [F5(0)] * 3)
    u = Vec8(a, zero_u, F5(2), F5(3))
    assert u.vnorm() == -F5(6)
    rng = random.Random(0)
    for _ in range(40):
        v = Vec8(a, rand_aminus(a, rng), F5(rng.randrange(5)), F5(rng.randrange(5)))
        n = v.vnorm()
        assert v.matrix() * v.hat_psi().matrix() == M2A.identity(a).scale(n)
        assert v.hat_psi().hat_psi() == v
        if not n.is_zero():
            mem = gsp_membership(v.matrix())
            assert mem is not None and mem.m == n


def test_gsp_membership_examples():
    a = make_algebra(F5)
    ident = gsp_membership(M2A.identity(a))
    assert ident is not None and ident.m == F5(1)
    swap = M2A(a, a.zero(), a.one(), a.one(), a.zero())
    gs = gsp_membership(swap)
    assert gs is not None and gs.m == F5(1)
    # a non-member
    bad = M2A(a, a.one(), a.basis_elem(1, 1), a.zero(), a.one())
    assert gsp_membership(bad) is None


def matrix_to_biquat(algebra, m4, iso_b, iso_c):
    """Inverse of the split tensor picture M_2(F) (x) M_2(F) = M_4(F)."""
    from isogeny_kit.linalg import kron
    field = algebra.ring
    cols = []
    for s in range(4):
        for t in range(4):
            img = kron(field, iso_b.matrix(algebra.B.basis()[s]),
                       iso_c.matrix(algebra.C.basis()[t]))
            cols.append([img[i, j] for i in range(4) for j in range(4)])
    big = Mat(field, [[cols[j][i] for j in range(16)] for i in range(16)])
    sol = big.solve([m4[i, j] for i in range(4) for j in range(4)])
    assert sol is not None
    return algebra.elem(sol)


def test_gsp_hat_vs_gsp_the_genie_counterexample():
    """The hat-group element with multiplier 1 and reduced norm -m^4."""
    field = F5
    a = BiquatAlg(QuatAlg(field, 1, 2), QuatAlg(field, 1, 3))
    iso_b, iso_c = SplitIso(a.B), SplitIso(a.C)

    def emb(m4_rows):
        return matrix_to_biquat(a, Mat(field, [[field(v) for v in r]
                                               for r in m4_rows]), iso_b, iso_c)

    z = [[0] * 4 for _ in range(4)]
    e = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]
    h = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    f = [r[:] for r in z]
    f[3][0] = 1
    g = [r[:] for r in z]
    g[0][3] = 1
    mat = M2A(a, emb(e), emb(f), emb(g), emb(h))
    # the three GSp relations hold with multiplier 1; only the norm fails
    p, q, r, s = mat.entries()
    assert (p * q.bar()).in_minus_space() and (r * s.bar()).in_minus_space()
    mult = p * s.bar() + q * r.bar()
    assert mult.is_scalar() and mult.scalar_part() == field(1)
    assert gsp_membership(mat) is None
    assert reduced_norm_M2A(mat) == field(-1)


def test_reduced_norm_m2a_vs_split_oracle():
    rng = random.Random(1)
    for field in (F3, F5):
        a = make_algebra(field)
        for _ in range(25):
            m = M2A(a, *[a.elem([rng.randrange(field.p) for _ in range(16)])
                         for _ in range(4)])
            assert reduced_norm_M2A(m) == _norm8_split_oracle(m)


def test_reduced_norm_m2a_reaches_the_oracle_after_the_cascade(monkeypatch):
    """Four equal zero-divisor blocks: the Schur block has norm 0 as it
    stands, after either swap and after every shear, so the 8x8 split
    oracle runs once, after all of them, and the norm is 0."""
    a = make_algebra(F3)
    rng = random.Random(0)
    z = next(x for x in (a.elem([rng.randrange(3) for _ in range(16)]) for _ in range(1000))
             if not x.is_zero() and reduced_norm_A(x).is_zero())
    norms, oracle_after = [], []
    norm, oracle = spin_eight.reduced_norm_A, spin_eight._norm8_split_oracle

    def counted_norm(x):
        norms.append(x)
        return norm(x)

    def counted_oracle(m):
        oracle_after.append(len(norms))
        return oracle(m)

    monkeypatch.setattr(spin_eight, "reduced_norm_A", counted_norm)
    monkeypatch.setattr(spin_eight, "_norm8_split_oracle", counted_oracle)
    assert reduced_norm_M2A(M2A(a, z, z, z, z)) == F3(0)
    # the block norms: as it stands, two swaps, one per shear
    shears = spin_eight._shear_candidates(a)
    assert len(shears) > 0 and oracle_after == [3 + len(shears)]


def split_e_matrix():
    """((e1, e2), (-e2, e1)) over A = (3, 5) (x) (3, 6) over F7 x F7: its
    upper-left block has the nonzero zero-divisor norm e1; componentwise
    it is the identity and ((0, 1), (-1, 0)), both of reduced norm 1."""
    f7 = GF(7)
    e = EtaleQuad(f7)
    a = BiquatAlg(QuatAlg(e, 3, 5), QuatAlg(e, 3, 6))
    e1, e2 = e.from_xy(f7(1), f7(0)), e.from_xy(f7(0), f7(1))
    one = a.one()
    return M2A(a, one.scale(e1), one.scale(e2), one.scale(-e2), one.scale(e1))


def test_reduced_norm_m2a_skips_zero_divisor_norm():
    """Over split E a Schur block whose norm is a nonzero zero divisor is
    skipped for the swaps."""
    m = split_e_matrix()
    assert reduced_norm_M2A(m) == m.A.ring.from_xy(1, 1)


def split_e_member():
    member = gsp_membership(split_e_matrix())
    assert member is not None and member.m == member.mat.A.ring.from_xy(1, 6)
    return member


def test_gsp_decompose_skips_zero_divisor_block():
    member = split_e_member()
    gf = gsp_decompose(member)
    assert not gf.v.embed().is_zero()
    assert gf.assemble() == member.mat


def test_mutation_shift_check_on_is_zero(monkeypatch):
    member = split_e_member()
    monkeypatch.setattr(spin_eight, "_is_unit", lambda n: not n.is_zero())
    with pytest.raises(NonInvertible):
        gsp_decompose(member)


def test_shift_check_mutant_survives_assert_stripping():
    out = run_optimized("""
        import test_spin_eight as t
        from isogeny_kit import spin_eight
        from isogeny_kit.errors import NonInvertible
        assert False, "asserts are live"
        member = t.split_e_member()
        spin_eight._is_unit = lambda n: not n.is_zero()
        try:
            spin_eight.gsp_decompose(member)
        except NonInvertible as exc:
            print("raised", exc)
        """)
    assert out.startswith("raised BiquatElem is a zero divisor")


# ---------------------------------------------------------------------------
# the closed generic form
# ---------------------------------------------------------------------------

def four_factor_product(gf):
    """The oracle for GenForm.assemble: the four factors multiplied out,
    ((1,v),(0,1)) ((1,0),(beta,1)) ((a,0),(0,m bar(a)^-1)) ((1,alpha),(0,1))."""
    alg = gf.A
    one, zero = alg.one(), alg.zero()
    u_v = M2A(alg, one, gf.v.embed(), zero, one)
    l_b = M2A(alg, one, zero, gf.beta.embed(), one)
    di = M2A.diag(alg, gf.a, gf.a.bar().inverse().scale(gf.m))
    u_a = M2A(alg, one, gf.alpha.embed(), zero, one)
    return u_v * l_b * di * u_a


def assemble_sign_mutant(self):
    """GenForm.assemble with X = a - v (beta a): a mutant for the
    reassembly checks."""
    if self._mat is None:
        v, alpha = self.v.embed(), self.alpha.embed()
        d = self.a_inverse().bar().scale(self.m)
        ba = self.beta.embed() * self.a
        x = self.a - v * ba
        self._mat = M2A(self.A, x, x * alpha + v * d, ba, ba * alpha + d)
    return self._mat


def genform_ring(kind):
    """(algebra, coefficient draw) over F_5, Q, the split E = F_7 x F_7 of
    split_e_matrix and the non-split E = F_5(sqrt 2)."""
    if kind == "F5":
        return make_algebra(F5), lambda r: F5(r.randrange(5))
    if kind == "Q":
        return (BiquatAlg(QuatAlg(QQ, -1, 3), QuatAlg(QQ, 2, 5)),
                lambda r: QQ(r.randint(-2, 2)))
    if kind == "split E":
        a = split_e_matrix().A
        f7 = GF(7)
        return a, lambda r: a.ring.from_xy(f7(r.randrange(7)), f7(r.randrange(7)))
    e = EtaleQuad(F5, 2)
    assert not e.is_split
    return (BiquatAlg(QuatAlg(e, 2, 3), QuatAlg(e, 1, 2)),
            lambda r: e.from_xy(F5(r.randrange(5)), F5(r.randrange(5))))


def rand_genform(algebra, coeff, rng):
    """A fresh GenForm with v != 0, a invertible and a unit multiplier."""
    def rand_v():
        return algebra.aminus([coeff(rng) for _ in range(3)],
                              [coeff(rng) for _ in range(3)])
    v = rand_v()
    while v.embed().is_zero():
        v = rand_v()
    a = algebra.elem([coeff(rng) for _ in range(16)])
    while not spin_eight._is_unit(reduced_norm_A(a)):
        a = algebra.elem([coeff(rng) for _ in range(16)])
    m = coeff(rng)
    while not spin_eight._is_unit(m):
        m = coeff(rng)
    return GenForm(algebra, v, a, rand_v(), rand_v(), m)


@pytest.mark.parametrize("kind", ["F5", "Q", "split E", "F5(sqrt2)"])
def test_assemble_matches_four_factor_product(kind):
    algebra, coeff = genform_ring(kind)
    rng = random.Random(13)
    for _ in range(6):
        gf = rand_genform(algebra, coeff, rng)
        assert gf.assemble() == four_factor_product(gf)


def test_closed_form_sign_mutant_fails_reassembly(monkeypatch):
    member = split_e_member()  # decomposes at v != 0 only
    monkeypatch.setattr(GenForm, "assemble", assemble_sign_mutant)
    with pytest.raises(InvariantViolated):
        gsp_decompose(member)


def test_closed_form_sign_mutant_survives_assert_stripping():
    out = run_optimized("""
        import test_spin_eight as t
        from isogeny_kit import spin_eight
        from isogeny_kit.errors import InvariantViolated
        assert False, "asserts are live"
        member = t.split_e_member()
        spin_eight.GenForm.assemble = t.assemble_sign_mutant
        try:
            spin_eight.gsp_decompose(member)
        except InvariantViolated as exc:
            print("raised", exc)
        """)
    assert out.startswith("raised generic form failed to reassemble")


def count_biquat_ops(monkeypatch):
    """Count bi-quaternion products and inverses from here on; the products
    an inverse makes count as part of that inverse."""
    counts = {"mul": 0, "inverse": 0}
    inside = [0]
    mul, inverse = BiquatElem.__mul__, BiquatElem.inverse

    def counted_mul(x, y):
        if not inside[0]:
            counts["mul"] += 1
        return mul(x, y)

    def counted_inverse(x):
        counts["inverse"] += 1
        inside[0] += 1
        try:
            return inverse(x)
        finally:
            inside[0] -= 1
    monkeypatch.setattr(BiquatElem, "__mul__", counted_mul)
    monkeypatch.setattr(BiquatElem, "inverse", counted_inverse)
    return counts


def test_assemble_op_counts(monkeypatch):
    algebra, coeff = genform_ring("F5")
    gf = rand_genform(algebra, coeff, random.Random(14))
    members = [split_e_member(), rand_cover(algebra, random.Random(15)).as_gsp()]
    counts = count_biquat_ops(monkeypatch)
    gf.assemble()
    assert counts == {"mul": 5, "inverse": 1}
    gf.assemble()
    assert counts == {"mul": 5, "inverse": 1}
    for member in members:
        counts["inverse"] = 0
        gsp_decompose(member).assemble()
        assert counts["inverse"] == 1


def test_comp_reparam_zero_divisor_d_is_singular():
    """Over split E, D(v - w, beta) can be a nonzero zero divisor: no unit,
    so the reparametrization is singular, as at D = 0."""
    gf = gsp_decompose(split_e_member())
    e, f7 = gf.A.ring, GF(7)
    rng = random.Random(0)
    singular = 0
    for _ in range(40):
        w = gf.A.aminus([e.from_xy(f7(rng.randrange(7)), f7(rng.randrange(7)))
                         for _ in range(3)],
                        [e.from_xy(f7(rng.randrange(7)), f7(rng.randrange(7)))
                         for _ in range(3)])
        dd = D(gf.v - w, gf.beta)
        if dd.is_zero() or spin_eight._is_unit(dd):
            continue
        with pytest.raises(SingularReparam):
            comp_reparam(gf, w)
        singular += 1
    assert singular


def test_d_and_normsq():
    a = make_algebra(F5)
    rng = random.Random(2)
    zero_u = a.aminus([F5(0)] * 3, [F5(0)] * 3)
    eta = rand_aminus(a, rng)
    assert D(eta, zero_u) == F5(1)
    # eta = omega: direct formula evaluation
    while albert_norm(eta).is_zero():
        eta = rand_aminus(a, rng)
    n = albert_norm(eta)
    pr = albert_pair(eta, theta(eta))
    assert D(eta, eta) == F5(1) + pr + pr + n * n
    for _ in range(200):
        x, y = rand_aminus(a, rng), rand_aminus(a, rng)
        assert normsq_check(x, y)


def test_gsp_decompose_examples():
    a = make_algebra(F5)
    field = F5
    rng = random.Random(3)
    zero_v = a.aminus([field.zero()] * 3, [field.zero()] * 3)
    # diagonal: v = alpha = beta = 0
    while True:
        x = a.elem([rng.randrange(5) for _ in range(16)])
        if not reduced_norm_A(x).is_zero():
            break
    m = field(3)
    diag = M2A.diag(a, x, x.bar().inverse().scale(m))
    gf = gsp_decompose(gsp_membership(diag))
    assert all(u.embed().is_zero() for u in (gf.v, gf.alpha, gf.beta))
    assert gf.a == x and gf.m == m
    # the swap via the stated parameter recipe
    while True:
        u = rand_aminus(a, rng)
        if not albert_norm(u).is_zero():
            break
    n = albert_norm(u)
    recipe = GenForm(a, -u, u.embed(), theta(u).scale(n.inverse()),
                     theta(u).scale(n.inverse()), field(1))
    assert recipe.assemble() == M2A(a, a.zero(), a.one(), a.one(), a.zero())
    # singular upper-left block forces the unipotent-shift search
    swapdiag = M2A(a, a.zero(), x.bar().inverse().scale(m), x, a.zero())
    member = gsp_membership(swapdiag)
    assert member is not None
    gf2 = gsp_decompose(member)
    assert gf2.assemble() == swapdiag
    assert not gf2.v.embed().is_zero()


def test_gsp_decompose_f3_retry():
    a = make_algebra(F3)
    rng = random.Random(4)
    for _ in range(20):
        x = rand_cover(a, rng)
        gf = gsp_decompose(x.as_gsp())
        assert gf.assemble() == x.matrix()


def test_vnorm8_recipe_params():
    # anisotropic U with p != 0: right-multiplied matrix has a = p,
    # alpha = u/p, beta = u~/p
    a = make_algebra(F5)
    rng = random.Random(5)
    while True:
        u = rand_aminus(a, rng)
        p, q = F5(rng.randrange(1, 5)), F5(rng.randrange(5))
        vec = Vec8(a, u, p, q)
        if not vec.vnorm().is_zero():
            break
    jmat = M2A.diag(a, a.one(), -a.one())
    swap = M2A(a, a.zero(), a.one(), a.one(), a.zero())
    moved = vec.matrix() * jmat * swap
    pinv = p.inverse()
    gf = GenForm(a, a.aminus([F5(0)] * 3, [F5(0)] * 3), a.from_scalar(p),
                 u.scale(pinv), theta(u).scale(pinv), q * p - vec.vnorm())
    assert gf.assemble() == moved


def test_phi_examples():
    a = make_algebra(F5)
    assert phi(gsp_membership(M2A.identity(a))).is_trivial()
    swap = M2A(a, a.zero(), a.one(), a.one(), a.zero())
    assert phi(gsp_membership(swap)).is_trivial()
    rng = random.Random(6)
    uni = GenForm(a, rand_aminus(a, rng), a.one(),
                  a.aminus([F5(0)] * 3, [F5(0)] * 3),
                  a.aminus([F5(0)] * 3, [F5(0)] * 3), F5(1))
    assert phi(gsp_membership(uni.assemble())).is_trivial()


def test_phi_multiplicative_and_decomposition_independent():
    a = make_algebra(F5)
    rng = random.Random(7)
    from isogeny_kit.spin_eight import comp_reparam, _shear_candidates
    for _ in range(40):
        x, y = rand_cover(a, rng), rand_cover(a, rng)
        gx, gy = x.as_gsp(), y.as_gsp()
        prod = gsp_membership(x.matrix() * y.matrix())
        assert phi(prod) == phi(gx) * phi(gy)
        gf = gsp_decompose(gx)
        for w in _shear_candidates(a)[:6]:
            try:
                gf2, _ = comp_reparam(gf, w)
            except Exception:
                continue
            assert square_class(reduced_norm_A(gf2.a)) == phi(gx)
            break


def test_comp_reparam():
    a = make_algebra(F5)
    rng = random.Random(8)
    from isogeny_kit.spin_eight import comp_reparam
    for _ in range(60):
        x = rand_cover(a, rng)
        gf = x.gf
        w = rand_aminus(a, rng)
        try:
            gf2, factor = comp_reparam(gf, w)
        except Exception:
            continue
        assert gf2.assemble() == gf.assemble()
        assert gf2.v == w
        # part (i): c = (1 - (w - v) beta) a
        wv = w - gf.v
        c_expected = (a.one() - wv.embed() * gf.beta.embed()) * gf.a
        assert gf2.a == c_expected
        # part (ii): delta = (beta - |beta|^2 (w~ - v~)) / D(beta, w - v)
        dd = D(-wv, gf.beta)
        delta_exp = (gf.beta - theta(wv).scale(albert_norm(gf.beta))).scale(dd.inverse())
        assert gf2.beta == delta_exp
        assert factor == dd
    # new_v = v leaves everything unchanged
    x = rand_cover(a, rng)
    gf2, factor = __import__("isogeny_kit.spin_eight", fromlist=["comp_reparam"]) \
        .comp_reparam(x.gf, x.gf.v)
    assert factor == F5(1) and gf2.a == x.gf.a


def test_psi_examples():
    a = make_algebra(F5)
    field = F5
    zero_v = a.aminus([field.zero()] * 3, [field.zero()] * 3)
    # scalar rI with root r^2 is psi-fixed
    r = field(3)
    gf = GenForm(a, zero_v, a.from_scalar(r), zero_v, zero_v, r * r)
    x = CoveredGSpElem(gf, r * r, check=False)
    assert psi(x).matrix() == gf.assemble() and psi(x).t == x.t
    # swap with root -|u|^2 is psi-fixed
    rng = random.Random(9)
    while True:
        u = rand_aminus(a, rng)
        if not albert_norm(u).is_zero():
            break
    n = albert_norm(u)
    recipe = GenForm(a, -u, u.embed(), theta(u).scale(n.inverse()),
                     theta(u).scale(n.inverse()), field(1))
    x2 = CoveredGSpElem(recipe, -n, check=False)
    assert psi(x2).matrix() == recipe.assemble()
    # diagonal (a, 0; 0, m bar(a)^-1) has psi-image (t bar(a)^-1, 0; 0, m a/t)
    while True:
        g = a.elem([rng.randrange(5) for _ in range(16)])
        ng = reduced_norm_A(g)
        if not ng.is_zero() and is_square(ng):
            break
    t = sqrt_exact(ng)
    m = field(2)
    gfd = GenForm(a, zero_v, g, zero_v, zero_v, m)
    xd = CoveredGSpElem(gfd, t, check=False)
    expect = M2A.diag(a, g.bar().inverse().scale(t), g.scale(m / t))
    assert psi(xd).matrix() == expect


def test_psi_seeds_the_inverse_of_its_new_block(monkeypatch):
    """psi's form carries the guess a^-1 = bar(a) t^-1, and a_inverse takes
    it once one product confirms it, with no inversion; a _psi_diagonal that
    returns another block (criterion 8's psi-negate-block) fails the check,
    so a^-1 is computed anew."""
    a = make_algebra(F5)
    rng = random.Random(12)
    ys = [psi(rand_cover(a, rng)) for _ in range(10)]
    expect = [y.gf.a.inverse() for y in ys]
    assert all(y.gf._a_inv is None and y.gf._a_inv_guess is not None for y in ys)
    with monkeypatch.context() as m:
        m.setattr(BiquatElem, "inverse", lambda self: pytest.fail("inverted"))
        assert [y.gf.a_inverse() for y in ys] == expect
    monkeypatch.setattr(spin_eight, "_psi_diagonal",
                        lambda b, t: (-(b.bar().inverse().scale(t)), t))
    y = psi(rand_cover(a, rng))
    assert y.gf._a_inv_guess * y.gf.a != a.one()
    assert y.gf.a_inverse() * y.gf.a == a.one()


def test_psi_group_properties():
    a = make_algebra(F5)
    rng = random.Random(10)
    for _ in range(60):
        x, y = rand_cover(a, rng), rand_cover(a, rng)
        assert psi(psi(x)) == x
        assert psi(cover_mul(x, y)) == cover_mul(psi(x), psi(y))
        assert psi(x).gf.m == x.gf.m
        inv = cover_inverse(x)
        assert cover_mul(x, inv) == cover_identity(a)


def rand_cover_over(algebra, coeff, rng, k=3):
    """Random covered element over any ring: products of unipotents and of
    diagonals diag(u, m bar(u)^-1) for anisotropic u in A^-, whose root is
    +-|u|^2; coeff(rng) draws a ring element."""
    ring = algebra.ring
    zero_v = spin_eight._zero_aminus(algebra)

    def rand_v():
        return algebra.aminus([coeff(rng) for _ in range(3)],
                              [coeff(rng) for _ in range(3)])
    x = cover_identity(algebra)
    for _ in range(k):
        kind = rng.randrange(3)
        if kind == 0:
            gf = GenForm(algebra, rand_v(), algebra.one(), zero_v, zero_v, ring.one())
            y = CoveredGSpElem(gf, ring.one())
        elif kind == 1:
            gf = GenForm(algebra, zero_v, algebra.one(), zero_v, rand_v(), ring.one())
            y = CoveredGSpElem(gf, ring.one())
        else:
            u = rand_v()
            while albert_norm(u).is_zero():
                u = rand_v()
            m = coeff(rng)
            while m.is_zero():
                m = coeff(rng)
            gf = GenForm(algebra, zero_v, u.embed(), zero_v, zero_v, m)
            y = CoveredGSpElem(gf, albert_norm(u) * rng.choice((1, -1)))
        x = cover_mul(x, y)
    return x


@pytest.mark.parametrize("kind", ["Q", "F5(sqrt2)"])
def test_cover_inverse_beyond_f_p(kind):
    # test_psi_group_properties covers F5
    from isogeny_kit.exactfield import QQ
    rng = random.Random(29)
    if kind == "Q":
        a, trials = BiquatAlg(QuatAlg(QQ, -1, 3), QuatAlg(QQ, 2, 5)), 4
        coeff = lambda r: QQ(r.randint(-2, 2))
    else:
        tw8 = make_tw8(F5)  # A over the non-split E = F5(sqrt 2)
        assert not tw8.E.is_split
        a, trials = tw8.AE, 6
        coeff = lambda r: tw8.E.from_xy(F5(r.randrange(5)), F5(r.randrange(5)))
    ident = cover_identity(a)
    for _ in range(trials):
        x = rand_cover_over(a, coeff, rng)
        inv = cover_inverse(x)
        assert cover_mul(x, inv) == ident
        assert cover_mul(inv, x) == ident


def test_gsp_prod_closed_form():
    a = make_algebra(F5)
    rng = random.Random(11)
    from isogeny_kit.spin_eight import GSpElem
    checked = 0
    while checked < 60:
        x, y = rand_cover(a, rng), rand_cover(a, rng)
        prod_mat = x.matrix() * y.matrix()
        target = GSpElem(prod_mat, x.gf.m * y.gf.m)
        try:
            gf_prod = gsp_decompose(target, v_constraints=[x.matrix()])
        except Exception:
            continue
        x2 = x.reparam(gf_prod.v)
        aa, alpha, beta, m = x2.gf.a, x2.gf.alpha, x2.gf.beta, x2.gf.m
        e, z, kappa, nu, n = y.gf.a, y.gf.v, y.gf.alpha, y.gf.beta, y.gf.m
        az = alpha + z
        x_blk = aa * (a.one() + az.embed() * nu.embed()) * e
        assert x_blk == gf_prod.a
        dd = D(az, nu)
        if dd.is_zero():
            continue
        dd_inv = dd.inverse()
        xi = kappa.embed() + (e.inverse() * (az + theta(nu).scale(albert_norm(az)))
                              .scale(dd_inv).embed() * e.bar().inverse()).scale(n)
        zeta = beta.embed() + (aa.bar().inverse()
                               * (nu + theta(az).scale(albert_norm(nu)))
                               .scale(dd_inv).embed() * aa.inverse()).scale(m)
        assert xi == gf_prod.alpha.embed()
        assert zeta == gf_prod.beta.embed()
        checked += 1


def test_act8_formulas():
    a = make_algebra(F5)
    field = F5
    rng = random.Random(12)
    space = vec8_space(a)
    zero_v = a.aminus([field.zero()] * 3, [field.zero()] * 3)
    for _ in range(40):
        u8 = vec8_from_coords(a, [field(rng.randrange(5)) for _ in range(8)])
        # upper unipotent
        v = rand_aminus(a, rng)
        gf = GenForm(a, v, a.one(), zero_v, zero_v, field(1))
        x = CoveredGSpElem(gf, field(1), check=False)
        img = act8(x, u8)
        assert img.q == u8.q
        assert img.u == u8.u + v.scale(u8.q)
        assert img.p == u8.p + albert_pair(u8.u, v) * field(2) \
            + u8.q * albert_norm(v)
        # scalar (rI, r^2) with multiplier r^2 acts trivially
        r = field(rng.randrange(1, 5))
        gfr = GenForm(a, zero_v, a.from_scalar(r), zero_v, zero_v, r * r)
        xr = CoveredGSpElem(gfr, r * r, check=False)
        img = act8(xr, u8)
        assert img == u8
        # diagonal
        while True:
            g = a.elem([rng.randrange(5) for _ in range(16)])
            ng = reduced_norm_A(g)
            if not ng.is_zero() and is_square(ng):
                break
        t = sqrt_exact(ng)
        m = field(rng.randrange(1, 5))
        gfd = GenForm(a, zero_v, g, zero_v, zero_v, m)
        xd = CoveredGSpElem(gfd, t, check=False)
        img = act8(xd, u8)
        assert img.p == t * u8.p / m and img.q == m * u8.q / t
        assert img.u == (g * u8.u.embed() * g.bar()).scale(t.inverse()).to_aminus()


def test_act8_is_isometric_action():
    a = make_algebra(F5)
    rng = random.Random(13)
    space = vec8_space(a)
    for _ in range(15):
        x, y = rand_cover(a, rng), rand_cover(a, rng)
        ix = act8_isometry(x, space)
        assert ix.is_valid()
        ixy = act8_isometry(cover_mul(x, y), space)
        assert ixy.matrix == ix.matrix * act8_isometry(y, space).matrix


def test_hpsi_gsp_relation():
    a = make_algebra(F5)
    rng = random.Random(14)
    for _ in range(100):
        x = rand_cover(a, rng)
        u = vec8_from_coords(a, [F5(rng.randrange(5)) for _ in range(8)])
        assert hpsi_gsp_relation(x, u)


def test_ref8_examples():
    a = make_algebra(F5)
    rng = random.Random(15)
    space = vec8_space(a)
    done = 0
    while done < 40:
        coords = [F5(rng.randrange(5)) for _ in range(8)]
        g8 = vec8_from_coords(a, coords)
        if g8.vnorm().is_zero():
            continue
        lift, flag = ref8_lift(g8)
        assert flag
        assert psi(lift).matrix() == M2A(a, *[-e for e in g8.hat_psi().matrix().entries()])
        assert lift.gf.m == g8.vnorm()
        # U = g -> -g; U perp g -> U
        assert ref8_apply(lift, g8) == g8.scale(-1)
        u = [F5(rng.randrange(5)) for _ in range(8)]
        s = space.pairing(u, coords) / g8.vnorm()
        uperp = vec8_from_coords(a, [x - s * y for x, y in zip(u, coords)])
        assert ref8_apply(lift, uperp) == uperp
        cols = [ref8_apply(lift, vec8_from_coords(a, space.basis_vector(i))).coords()
                for i in range(8)]
        assert isometry_from_images(space, cols).matrix \
            == reflect(space, coords).matrix
        done += 1
    with pytest.raises(IsotropicMirror):
        zero_u = a.aminus([F5(0)] * 3, [F5(0)] * 3)
        ref8_lift(Vec8(a, zero_u, F5(0), F5(3)))


def test_dim8_lift():
    a = make_algebra(F5)
    rng = random.Random(16)
    space = vec8_space(a)
    for _ in range(8):
        t = random_isometry(space, rng, special=True, max_mirrors=6)
        x = dim8_lift(t, a)
        assert act8_isometry(x, space).matrix == t.matrix
        assert spinor_norm(t) == square_class(x.gf.m)


def test_dim7_stabilizer():
    a = make_algebra(F5)
    field = F5
    rng = random.Random(17)
    delta = field.least_nonresidue()
    q8 = dim7_q(a, delta)
    # diagonal (a, t bar(a)^-1) stabilizes: first form
    found = 0
    while found < 10:
        g = a.elem([rng.randrange(5) for _ in range(16)])
        na = reduced_norm_A(g)
        if na.is_zero() or not is_square(na):
            continue
        t = sqrt_exact(na)
        zero_v = a.aminus([field.zero()] * 3, [field.zero()] * 3)
        gf = GenForm(a, zero_v, g, zero_v, zero_v, t)
        x = CoveredGSpElem(gf, t, check=False)
        mem = dim7_stab_membership(x.as_gsp(), delta)
        assert mem is not None and mem.first is not None
        assert act8(mem.cover, q8) == q8
        found += 1
    # anisotropic generator ((v, delta), (1, -v~)): second form with w = v
    found = 0
    while found < 10:
        v = rand_aminus(a, rng)
        mat = M2A(a, v.embed(), a.from_scalar(delta), a.one(), -theta(v).embed())
        g = gsp_membership(mat)
        if g is None:
            continue
        mem = dim7_stab_membership(g, delta)
        assert mem is not None and mem.second is not None
        c2, s2, w2 = mem.second
        assert w2 == v and s2 == -field(1)
        assert mem.is_spin == (g.m == field(1))
        found += 1
    # a non-stabilizer
    uni = M2A(a, a.one(), rand_aminus(a, rng).embed(), a.zero(), a.one())
    assert dim7_stab_membership(gsp_membership(uni), delta) is None


def test_stabinv_block_invertibility_sampled():
    # every sampled stabilizer member has an invertible a or c block
    rng = random.Random(18)
    for field in (F3, F5):
        a = make_algebra(field)
        delta = field.least_nonresidue()
        count = 0
        while count < 500:
            v = rand_aminus(a, rng)
            w = rand_aminus(a, rng)
            m1 = M2A(a, v.embed(), a.from_scalar(delta), a.one(), -theta(v).embed())
            m2 = M2A(a, w.embed(), a.from_scalar(delta), a.one(), -theta(w).embed())
            g1, g2 = gsp_membership(m1), gsp_membership(m2)
            if g1 is None or g2 is None:
                continue
            prod = gsp_membership(g1.mat * g2.mat)
            if prod is None:
                continue
            mem = dim7_stab_membership(prod, delta)
            if mem is None:
                continue
            a_inv = not reduced_norm_A(prod.mat.a).is_zero()
            c_inv = not reduced_norm_A(prod.mat.c).is_zero()
            assert a_inv or c_inv
            count += 1


def test_deltadep():
    a = make_algebra(F5)
    field = F5
    rng = random.Random(19)
    delta = field.least_nonresidue()
    while True:
        v = rand_aminus(a, rng)
        mat = M2A(a, v.embed(), a.from_scalar(delta), a.one(), -theta(v).embed())
        g = gsp_membership(mat)
        if g is not None and dim7_stab_membership(g, delta) is not None:
            break
    # r = 1: identity map
    g1 = deltadep_conjugate_scalar(g, field(1))
    assert g1.mat == g.mat
    # delta vs r^2 delta
    r = field(2)
    g2 = deltadep_conjugate_scalar(g, r)
    assert dim7_stab_membership(gsp_membership(g2.mat), r * r * delta) is not None
    # e with N(e) = n: delta -> n delta
    while True:
        e = a.elem([rng.randrange(5) for _ in range(16)])
        if not reduced_norm_A(e).is_zero():
            break
    g3 = deltadep_conjugate_norm(g, e)
    assert dim7_stab_membership(gsp_membership(g3.mat),
                                reduced_norm_A(e) * delta) is not None


def test_triality_kernels():
    for field in (F3, F5):
        a = make_algebra(field)
        ks = triality_kernels(a)
        assert set(ks) == {"action", "projection", "psi_projection"}
        # the three cover pairs are (-I, -I), (I, -I), (-I, I)
        minus_one = -a.one()
        assert ks["action"].matrix() == M2A.diag(a, minus_one, minus_one)
        assert psi(ks["action"]).matrix() == M2A.diag(a, minus_one, minus_one)
        assert ks["projection"].matrix() == M2A.identity(a)
        assert psi(ks["projection"]).matrix() == M2A.diag(a, minus_one, minus_one)
        assert ks["psi_projection"].matrix() == M2A.diag(a, minus_one, minus_one)
        assert psi(ks["psi_projection"]).matrix() == M2A.identity(a)


# ---------------------------------------------------------------------------
# the rho-twisted dimension 8
# ---------------------------------------------------------------------------

def make_tw8(field):
    a = make_algebra(field)
    e = EtaleQuad(field, field.least_nonresidue())
    q = a.aminus([field.zero()] * 3, [field(1), field.zero(), field.zero()])
    return Twisted8(TwistedSpace(a, e, q))


def test_rhoq8_membership_examples():
    tw8 = make_tw8(F5)
    ts = tw8.ts
    rng = random.Random(20)
    # unipotent with v in the twisted space
    v = ts.from_vec([F5(rng.randrange(5)) for _ in range(6)])
    uni = M2A(tw8.AE, tw8.AE.one(), v, tw8.AE.zero(), tw8.AE.one())
    mem = tw8.membership(uni)
    assert mem is not None and mem.m == F5(1)
    # ((0, Q), (Q~, 0)) has multiplier -|Q|^2
    matq = M2A(tw8.AE, tw8.AE.zero(), ts.QE,
               theta(ts.QE.to_aminus()).embed(), tw8.AE.zero())
    memq = tw8.membership(matq)
    assert memq is not None and memq.m == -ts.q_norm
    # g Qhat^-1 for anisotropic twisted g
    done = 0
    while done < 10:
        coords = [F5(rng.randrange(5)) for _ in range(8)]
        v8 = tw8.from_coords(coords)
        n = v8.vnorm()
        if not n.is_scalar() or n.scalar_part().is_zero():
            continue
        prod = v8.matrix() * tw8.q_hat_gsp_inv_mat
        assert tw8.membership(prod) is not None
        done += 1
    # a generic element over E is not a member
    h = ts.E.gen0()
    bad = M2A(tw8.AE, tw8.AE.one(), tw8.AE.from_scalar(h) * v,
              tw8.AE.zero(), tw8.AE.one())
    assert tw8.membership(bad) is None


def test_rhoq8_action_preserves_structure():
    tw8 = make_tw8(F3)
    rng = random.Random(21)
    done = 0
    while done < 15:
        coords = [F3(rng.randrange(3)) for _ in range(8)]
        v8 = tw8.from_coords(coords)
        n = v8.vnorm()
        if not n.is_scalar() or n.scalar_part().is_zero():
            continue
        lift = ref8igen_lift(tw8, v8)
        w8 = tw8.from_coords([F3(rng.randrange(3)) for _ in range(8)])
        img = lift.act_on(w8)
        assert tw8.contains_vec(img)
        assert img.vnorm() == w8.vnorm()
        done += 1


def test_ref8igen_matches_reflect():
    for field in (F3, F5):
        tw8 = make_tw8(field)
        rng = random.Random(22)
        done = 0
        while done < 20:
            coords = [field(rng.randrange(field.p)) for _ in range(8)]
            v8 = tw8.from_coords(coords)
            n = v8.vnorm()
            if not n.is_scalar() or n.scalar_part().is_zero():
                continue
            lift = ref8igen_lift(tw8, v8)
            cols = [tw8.to_coords(ref8igen_apply(
                tw8, lift, tw8.from_coords(tw8.space.basis_vector(i))))
                for i in range(8)]
            assert isometry_from_images(tw8.space, cols).matrix \
                == reflect(tw8.space, coords).matrix
            done += 1


def test_qhatpsi_properties():
    tw8 = make_tw8(F5)
    ts = tw8.ts
    qh = tw8.q_hat
    # psi(Qhat) = ((-Q~, 0), (0, Q)) with the same root -|Q|^2... matrix level
    pq = psi(qh)
    expect = M2A.diag(tw8.AE, -theta(ts.QE.to_aminus()).embed(), ts.QE)
    assert pq.matrix() == expect
    # Qhat psi(Qhat) = -|Q|^2 with root |Q|^4
    prod = cover_mul(qh, pq)
    qn = ts.E.from_scalar(ts.q_norm)
    assert prod.matrix() == M2A.identity(tw8.AE).scale(-qn)
    assert prod.t == qn * qn
    # the action of Qhat psi~ on the twisted 8-space is rho
    rng = random.Random(23)
    for _ in range(20):
        coords = [F5(rng.randrange(5)) for _ in range(8)]
        v8 = tw8.from_coords(coords)
        img = act8(qh, v8.hat_psi())
        assert img.u.embed() == v8.u.embed().rho()
        assert img.p == v8.p and img.q == v8.q


def test_psi_qhat_conjugation_order_two():
    tw8 = make_tw8(F5)
    rng = random.Random(24)
    done = 0
    while done < 10:
        coords = [F5(rng.randrange(5)) for _ in range(8)]
        v8 = tw8.from_coords(coords)
        n = v8.vnorm()
        if not n.is_scalar() or n.scalar_part().is_zero():
            continue
        mem = tw8.membership(v8.matrix() * tw8.q_hat_gsp_inv_mat)
        x = mem.x
        assert tw8.psi_qhat(tw8.psi_qhat(x)) == x
        done += 1


def test_qthetaqrel_and_combination():
    tw8 = make_tw8(F5)
    ts = tw8.ts
    ts_tilde = TwistedSpace(ts.A, ts.E, theta(ts.Q))
    rng = random.Random(25)
    for _ in range(60):
        v = ts.from_vec([F5(rng.randrange(5)) for _ in range(6)])
        w = ts_tilde.from_vec([F5(rng.randrange(5)) for _ in range(6)])
        vv, wv = v.to_aminus(), w.to_aminus()
        assert ts_tilde.contains(theta(vv).embed())                     # (i)
        assert ts_tilde.contains(ts.QE.inverse() * v * ts.QE.inverse())  # (ii)
        assert ts.multiplier(v * ts.QE.inverse()) \
            == -ts.vnorm_of(v) / ts.q_norm                               # (iii)
        assert ts.contains(theta(wv).embed())                            # (iv)
        assert ts.contains(ts.QE * w * ts.QE)                            # (v)
        assert ts.multiplier(ts.QE * w) \
            == -ts.q_norm * ts_tilde.vnorm_of(w)                         # (vi)
        mult = one_plus_eta_omega_multiplier(ts, v, w)
        assert mult is not None and ts.E.from_scalar(mult) == D(vv, wv)


def test_dim8igen_kernel_scalars():
    tw8 = make_tw8(F5)
    field = F5
    space = tw8.space
    zero_v = tw8.AE.aminus([tw8.E.zero()] * 3, [tw8.E.zero()] * 3)
    ident = Mat.identity(field, 8)
    # F^x scalars with root r^2 act trivially (exhaustive over scalars)
    for r in range(1, 5):
        rr = tw8.E.from_scalar(field(r))
        gf = GenForm(tw8.AE, zero_v, tw8.AE.from_scalar(rr), zero_v, zero_v,
                     rr * rr)
        x = CoveredGSpElem(gf, rr * rr, check=False)
        cols = [tw8.to_coords(act8(x, tw8.from_coords(space.basis_vector(i))))
                for i in range(8)]
        assert isometry_from_images(space, cols).matrix == ident
        # E_0 scalars act as -Id (they are excluded from the kernel):
        # multiplier is +(rh)^2, but the psi branch carries root -(rh)^2
        h = tw8.E.gen0()
        rh = rr * h
        gfh = GenForm(tw8.AE, zero_v, tw8.AE.from_scalar(rh), zero_v, zero_v,
                      rh * rh)
        xh = CoveredGSpElem(gfh, -(rh * rh), check=False)
        cols = [tw8.to_coords(act8(xh, tw8.from_coords(space.basis_vector(i))))
                for i in range(8)]
        assert isometry_from_images(space, cols).matrix == ident * field(-1)


def test_eq_sqrt():
    e = EtaleQuad(F5, 2)
    rng = random.Random(26)
    found = 0
    for z in e.elements():
        r = eq_sqrt(z)
        if r is not None:
            assert r * r == z
            found += 1
    # exactly (|E^x| / 2) + 1 squares in the field case (F_25)
    assert found == 13


def test_dim7_complement_space_action():
    from isogeny_kit.spin_eight import dim7_embed, dim7_space
    a = make_algebra(F5)
    field = F5
    rng = random.Random(27)
    delta = field.least_nonresidue()
    space7 = dim7_space(a, delta)
    q8 = dim7_q(a, delta)
    while True:
        v = rand_aminus(a, rng)
        mat = M2A(a, v.embed(), a.from_scalar(delta), a.one(), -theta(v).embed())
        g = gsp_membership(mat)
        if g is None:
            continue
        mem = dim7_stab_membership(g, delta)
        if mem is not None:
            break
    for _ in range(20):
        coords = [field(rng.randrange(5)) for _ in range(7)]
        u = dim7_embed(a, delta, coords)
        assert u.vnorm() == space7.vnorm(coords)
        # the stabilizer action preserves the complement of Q and norms
        img = spin_eight.act8(mem.cover, u)
        s8 = vec8_space(a)
        assert s8.pairing(img.coords(), q8.coords()).is_zero()
        assert img.vnorm() == u.vnorm()


# ---------------------------------------------------------------------------
# work skipped or shared on the cover path: the identity reparametrization
# and the shear vectors built once per descriptor
# ---------------------------------------------------------------------------

def general_reparam(gf, new_v):
    """comp_reparam's general formula, run also at new_v = v: the
    reparametrization with its identity shortcut patched out."""
    algebra = gf.A
    w_minus_v = new_v - gf.v
    dd = D(-w_minus_v, gf.beta)
    if not spin_eight._is_unit(dd):
        raise SingularReparam("D(v - w, beta) is not a unit")
    c = (algebra.one() - w_minus_v.embed() * gf.beta.embed()) * gf.a
    dd_inv = dd.inverse()
    delta = (gf.beta - theta(w_minus_v).scale(albert_norm(gf.beta))).scale(dd_inv)
    mid = (w_minus_v - theta(gf.beta).scale(albert_norm(w_minus_v))).scale(dd_inv)
    a_inv = gf.a_inverse()
    gamma_e = gf.alpha.embed() - (a_inv * mid.embed() * a_inv.bar()).scale(gf.m)
    out = GenForm(algebra, new_v, c, gamma_e.to_aminus(), delta, gf.m)
    if out.assemble() != gf.assemble():
        raise InvariantViolated("reparametrization changed the matrix")
    return out, dd


@pytest.mark.parametrize("field", [F3, F5], ids=repr)
def test_comp_reparam_at_own_v_returns_the_form(field):
    a = make_algebra(field)
    rng = random.Random(21)
    for _ in range(8):
        gf = rand_cover(a, rng).gf
        twin_v = a.aminus(list(gf.v.x), list(gf.v.y))
        for v in (gf.v, twin_v):
            gf2, factor = comp_reparam(gf, v)
            assert gf2 is gf and factor == field.one()
        # the general formula agrees: D(0, beta) = 1 and the same parameters
        gen, dd = general_reparam(gf, twin_v)
        assert dd == field.one()
        assert (gen.a, gen.alpha, gen.beta, gen.m) == (gf.a, gf.alpha, gf.beta, gf.m)
        # a v off gf.v in any one coordinate takes the general formula
        for k in range(6):
            coords = gf.v.coords()
            coords[k] = coords[k] + field.one()
            w = a.aminus_of(coords)
            try:
                gf2, factor = comp_reparam(gf, w)
            except SingularReparam:
                continue
            assert gf2.v == w and gf2.assemble() == gf.assemble()
            assert factor == D(gf.v - w, gf.beta)


def test_cover_mul_unchanged_with_reparam_shortcut_patched_out(monkeypatch):
    a = make_algebra(F5)
    pairs = [(rand_cover(a, random.Random(s), k=4), rand_cover(a, random.Random(50 + s), k=4))
             for s in range(8)]
    identity_calls = []

    def counted(gf, new_v):
        identity_calls.append(new_v == gf.v)
        return comp_reparam(gf, new_v)

    monkeypatch.setattr(spin_eight, "comp_reparam", counted)
    fast = [cover_mul(x, y) for x, y in pairs] + [cover_inverse(x) for x, _ in pairs]
    assert any(identity_calls)
    monkeypatch.setattr(spin_eight, "comp_reparam", general_reparam)
    slow = [cover_mul(x, y) for x, y in pairs] + [cover_inverse(x) for x, _ in pairs]
    for f, s in zip(fast, slow):
        assert f.matrix() == s.matrix() and f.gf.m == s.gf.m and f.t == s.t


def shift_members():
    """GSp members whose upper-left block is singular, so that
    gsp_decompose searches the shear vectors: the swap matrix over F_5
    and F_7, and a split-E block of zero-divisor norm."""
    out = [split_e_member()]
    for field in (F5, GF(7)):
        a = make_algebra(field)
        member = gsp_membership(M2A(a, a.zero(), a.one(), a.one(), a.zero()))
        assert member is not None
        out.append(member)
    return out


def test_shear_candidates_built_once_per_descriptor(monkeypatch):
    members = shift_members()
    for member in members:
        algebra = member.mat.A
        first = spin_eight._shear_candidates(algebra)
        assert spin_eight._shear_candidates(algebra) is first
        assert first == spin_eight._build_shear_candidates(algebra)
        twin = BiquatAlg(algebra.B, algebra.C)
        assert spin_eight._shear_candidates(twin) is not first
        assert spin_eight._shear_candidates(twin) == first
    picked = [gsp_decompose(m).v for m in members]
    assert all(not v.embed().is_zero() for v in picked)
    monkeypatch.setattr(spin_eight, "_shear_candidates", spin_eight._build_shear_candidates)
    assert [gsp_decompose(m).v for m in members] == picked


# ---------------------------------------------------------------------------
# the shift search over small fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_gsppsi_over_f3_finds_a_shift_at_every_seed(seed, capsys):
    """The fixed shear list offers 12 of the 728 nonzero vectors of
    A^-(F_3), and at seed 0 no listed v made a product's blocks invertible
    (DecompositionFailed, exit 2); the walk over A^-(F_3) after the list
    finds one."""
    from isogeny_kit.cli import main
    assert main(["verify", "GSppsi", "--field", "p=3", "--seed", str(seed),
                 "--trials", "100"]) == 0
    assert "GSppsi       pass  cases=300 failures=0" in capsys.readouterr().out


@pytest.mark.parametrize("p, walked", [(3, True), (5, True), (7, False)])
def test_an_exhausted_shift_search_says_whether_it_was_exhaustive(monkeypatch, p, walked):
    """Over F_p with p <= 5 the search tries v = 0, the shear list and then
    every other vector of A^-(F_p), and its error says so; over F_7 it stops
    after the list."""
    from isogeny_kit.errors import DecompositionFailed
    field = GF(p)
    a = BiquatAlg(QuatAlg(field, 2, -1), QuatAlg(field, 1, 2))
    g = spin_eight.gsp_membership(M2A(a, a.zero(), a.one(), a.one(), a.zero()))
    calls = []
    monkeypatch.setattr(spin_eight, "_is_unit", lambda n: calls.append(n) and False)
    with pytest.raises(DecompositionFailed) as info:
        spin_eight.gsp_decompose(g)
    listed = len(spin_eight._shear_candidates(a))
    assert len(calls) == 1 + listed + (p ** 6 - 1 if walked else 0)
    assert ("all of A^-(F_%d) tried" % p in str(info.value)) == walked
