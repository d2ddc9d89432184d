"""Etale algebras, quaternions, bi-quaternions, and the norm formulas.
The bi-quaternion reduced norm and inverse through the symplectic
involution against the 12-term polynomial, the split-embedding
determinant and the regular-representation inverse."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isogeny_kit import algebras, spin_eight
from isogeny_kit.errors import (
    AlgebraMismatch,
    NonInvertible,
    NormNotInBaseField,
    NotASplittingField,
)
from isogeny_kit.exactfield import GF, QQ
from isogeny_kit.algebras import (
    BiquatAlg,
    EQElem,
    EtaleQuad,
    QuatAlg,
    SplitEmbedding,
    SplitIso,
    albert_norm,
    albert_pair,
    biquat_to_mat4,
    quat_is_split,
    reduced_norm_A,
    reduced_norm_A_oracle,
    reduced_norm_M2B,
    theta,
)
from isogeny_kit.linalg import Mat
from isogeny_kit.towers import TableElem

from tests_helpers import reduced_norm_A_poly

F3 = GF(3)
F5 = GF(5)


def test_eq_ops_split():
    e = EtaleQuad(F5)
    z = e.from_xy(F5(2), F5(3))
    assert z.norm() == F5(2) * F5(3)
    assert z.conj() == e.from_xy(F5(3), F5(2))
    assert e.from_scalar(F5(4)).conj() == e.from_scalar(F5(4))


def test_eq_ops_field():
    e = EtaleQuad(F3, 2)
    z = e.one() + e.gen0()         # 1 + sqrt(2)
    assert z.norm() == F3(1) - F3(2)
    assert z * z.conj() == e.from_scalar(z.norm())


def test_etale_normalizes_square_to_split():
    e = EtaleQuad(F5, 4)
    assert e.is_split


def test_bepol_exhaustive_f3():
    for e in (EtaleQuad(F3), EtaleQuad(F3, 2)):
        for z in e.elements():
            for w in e.elements():
                assert (z + w).norm() == z.norm() + w.norm() + (z * w.conj()).trace()


def test_quat_examples():
    bq = QuatAlg(QQ, -1, -1)
    x = bq.elem([1, 1, 1, 1])
    assert x.norm() == QQ(4)
    split = QuatAlg(F5, 1, 1)
    i, j = split.i(), split.j()
    assert i * j == -(j * i)
    k = i * j
    assert k * k == split.from_scalar(F5(-1))
    r = bq.from_scalar(QQ(3))
    assert r.bar() == r and r.norm() == QQ(9)


def test_quat_bepol_sampled():
    rng = random.Random(0)
    bq = QuatAlg(F5, 2, 3)
    for _ in range(500):
        x = bq.elem([rng.randrange(5) for _ in range(4)])
        y = bq.elem([rng.randrange(5) for _ in range(4)])
        assert (x + y).norm() == x.norm() + y.norm() + (x * y.bar()).trace()


def test_main_involution_exhaustive_f3():
    for a in (F3(1), F3(-1)):
        for b in (F3(1), F3(-1)):
            bq = QuatAlg(F3, a, b)
            elems = bq.elements()
            for x in elems:
                prod = x * x.bar()
                assert prod == bq.from_scalar(x.norm())
            rng = random.Random(1)
            for _ in range(300):
                x = elems[rng.randrange(len(elems))]
                y = elems[rng.randrange(len(elems))]
                assert (x * y).bar() == y.bar() * x.bar()


def test_quat_is_split():
    assert quat_is_split(QuatAlg(QQ, 1, 7))
    assert quat_is_split(QuatAlg(QQ, -1, -1)) is False   # definite norm form
    bq5 = QuatAlg(F5, 2, 3)
    assert quat_is_split(bq5)
    # derived: the norm form over F_5 has an isotropic vector by enumeration
    space = bq5.norm_form()
    found = any(space.vnorm([F5(a), F5(b), F5(c), F5(d)]).is_zero()
                and (a, b, c, d) != (0, 0, 0, 0)
                for a in range(5) for b in range(5)
                for c in range(5) for d in range(5))
    assert found


def test_split_iso_is_ring_hom():
    rng = random.Random(2)
    bq = QuatAlg(F5, 1, 2)
    iso = SplitIso(bq)
    for _ in range(100):
        x = bq.elem([rng.randrange(5) for _ in range(4)])
        y = bq.elem([rng.randrange(5) for _ in range(4)])
        assert iso.matrix(x * y) == iso.matrix(x) * iso.matrix(y)
        assert iso.matrix(x + y) == iso.matrix(x) + iso.matrix(y)
        assert iso.matrix(x).det() == x.norm()
    assert iso.matrix(bq.one()) == Mat.identity(F5, 2)


def test_embed_split_examples():
    bq = QuatAlg(F5, 2, 3)
    k = EtaleQuad(F5, 2)
    emb = SplitEmbedding(bq, k, 3)
    j_img = emb.matrix(bq.j())
    assert j_img[0, 0].is_zero() and j_img[1, 1].is_zero()
    assert j_img[0, 1] == k.from_scalar(F5(3))
    assert j_img[1, 0] == k.one()
    assert emb.matrix(bq.one()) == Mat.identity(k, 2)
    # a split K = F x F has zero divisors; norm_det must not divide by them
    split_bq = QuatAlg(F5, 4, 2)
    split_k = EtaleQuad(F5, 4)
    assert split_k.is_split
    rng = random.Random(3)
    for bq, k, emb in ((bq, k, emb),
                       (split_bq, split_k, SplitEmbedding(split_bq, split_k, 2))):
        for _ in range(80):
            x = bq.elem([rng.randrange(5) for _ in range(4)])
            y = bq.elem([rng.randrange(5) for _ in range(4)])
            assert emb.matrix(x * y) == emb.matrix(x) * emb.matrix(y)
            assert emb.norm_det(x) == x.norm()
            # bar goes to the matrix adjoint
            xb = emb.matrix(x.bar())
            m = emb.matrix(x)
            adj = Mat(k, [[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
            assert xb == adj


def test_embed_split_rejects_wrong_symbol():
    bq = QuatAlg(F5, 2, 3)
    with pytest.raises(NotASplittingField):
        SplitEmbedding(bq, EtaleQuad(F5, 3), 3)
    with pytest.raises(NotASplittingField):
        SplitEmbedding(bq, EtaleQuad(F5, 2), 2)


def test_sadjt_inside_split_image():
    # conjugation by ((0,-1),(1,0)) interchanges bar(g) and g^t
    field = F3
    s = Mat(field, [[field(0), field(-1)], [field(1), field(0)]])
    s_inv = s.inverse()
    mats = [Mat(field, [[field(a), field(b)], [field(c), field(d)]])
            for a, b, c, d in itertools.product((0, 1), repeat=4)]
    rng = random.Random(4)
    for _ in range(200):
        mats.append(Mat(field, [[field(rng.randrange(3)) for _ in range(2)]
                                for _ in range(2)]))
    for g in mats:
        gbar = Mat(field, [[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])
        assert s * g.T * s_inv == gbar
        assert s * gbar * s_inv == g.T


def test_biquat_ops():
    a = BiquatAlg(QuatAlg(F5, 2, 3), QuatAlg(F5, 1, 2))
    b = a.B.elem([1, 2, 0, 1])
    c = a.C.elem([0, 1, 1, 0])
    t = a.tensor(b, c)
    assert t.bar() == a.tensor(b.bar(), c.bar())
    ib = a.basis_elem(1, 0)
    ic = a.basis_elem(0, 1)
    assert ib * ic == ic * ib
    one = a.one()
    assert one.minus_part().is_zero()
    assert one.plus_part() == one


def test_theta_albert_examples():
    a = BiquatAlg(QuatAlg(F5, 2, 3), QuatAlg(F5, 1, 2))
    x = a.B.elem([0, 1, 2, 1])
    u = a.aminus(x.traceless_coords(), [F5(0)] * 3)
    assert albert_norm(u) == x.norm()
    y = a.C.elem([0, 2, 1, 1])
    v = a.aminus([F5(0)] * 3, y.traceless_coords())
    assert albert_norm(v) == -y.norm()
    rng = random.Random(5)
    for _ in range(100):
        u = a.aminus([rng.randrange(5) for _ in range(3)],
                     [rng.randrange(5) for _ in range(3)])
        assert theta(theta(u)) == u
        n = albert_norm(u)
        assert u.embed() * theta(u).embed() == a.from_scalar(n)
        assert theta(u).embed() * u.embed() == a.from_scalar(n)
        w = a.aminus([rng.randrange(5) for _ in range(3)],
                     [rng.randrange(5) for _ in range(3)])
        pr = albert_pair(u, w)
        assert u.embed() * theta(w).embed() + w.embed() * theta(u).embed() \
            == a.from_scalar(pr + pr)


def test_reduced_norm_m2b():
    bq = QuatAlg(QQ, -1, -1)
    a = bq.elem([1, 2, 0, 1])
    d = bq.elem([2, 1, 1, 1])
    z = bq.zero()
    assert reduced_norm_M2B([[a, z], [z, d]]) == a.norm() * d.norm()
    assert reduced_norm_M2B([[bq.one(), z], [z, bq.one()]]) == QQ(1)
    # over F3 with split B: matches the determinant of the 4x4 matrix
    b3 = QuatAlg(F3, 1, 2)
    iso = SplitIso(b3)
    rng = random.Random(6)
    for _ in range(60):
        m = [[b3.elem([rng.randrange(3) for _ in range(4)]) for _ in range(2)]
             for _ in range(2)]
        blocks = [[iso.matrix(m[i][j]) for j in range(2)] for i in range(2)]
        big = Mat(F3, [list(blocks[i][0].rows[r]) + list(blocks[i][1].rows[r])
                       for i in range(2) for r in range(2)])
        assert reduced_norm_M2B(m) == big.det()


def test_navn2_exhaustive_f3():
    for syms in (((2, -1), (1, 1)), ((2, 2), (1, 2))):
        a = BiquatAlg(QuatAlg(F3, *syms[0]), QuatAlg(F3, *syms[1]))
        for coords in itertools.product(range(3), repeat=6):
            u = a.aminus([F3(c) for c in coords[:3]], [F3(c) for c in coords[3:]])
            n = albert_norm(u)
            assert reduced_norm_A(u.embed()) == n * n


def test_navn2_division_algebra_over_q():
    a = BiquatAlg(QuatAlg(QQ, -1, -1), QuatAlg(QQ, 2, 3))
    rng = random.Random(7)
    for _ in range(40):
        u = a.aminus([rng.randint(-3, 3) for _ in range(3)],
                     [rng.randint(-3, 3) for _ in range(3)])
        n = albert_norm(u)
        assert reduced_norm_A(u.embed()) == n * n


def test_reduced_norm_display_matches_oracle():
    rng = random.Random(8)
    for field, height in ((F3, 3), (F5, 5), (QQ, 3)):
        for syms in (((2, 3), (1, 2)), ((-1, -1), (2, 3))):
            try:
                a = BiquatAlg(QuatAlg(field, *syms[0]), QuatAlg(field, *syms[1]))
            except ValueError:
                continue
            for _ in range(30):
                if field.p:
                    x = a.elem([rng.randrange(field.p) for _ in range(16)])
                else:
                    x = a.elem([rng.randint(-height, height) for _ in range(16)])
                assert reduced_norm_A(x) == reduced_norm_A_oracle(x)


def test_tensor_norm_and_multiplicativity():
    rng = random.Random(9)
    a = BiquatAlg(QuatAlg(F5, 2, 3), QuatAlg(F5, 1, 2))
    for _ in range(50):
        b = a.B.elem([rng.randrange(5) for _ in range(4)])
        c = a.C.elem([rng.randrange(5) for _ in range(4)])
        nb, nc = b.norm(), c.norm()
        assert reduced_norm_A(a.tensor(b, c)) == nb * nb * nc * nc
    for _ in range(300):
        x = a.elem([rng.randrange(5) for _ in range(16)])
        y = a.elem([rng.randrange(5) for _ in range(16)])
        assert reduced_norm_A(x * y) == reduced_norm_A(x) * reduced_norm_A(y)
        assert reduced_norm_A(x.bar()) == reduced_norm_A(x)


def test_biquat_inverse_paths():
    rng = random.Random(10)
    # prime base, etale-over-prime base, and rational base all agree
    a5 = BiquatAlg(QuatAlg(F5, 2, 3), QuatAlg(F5, 1, 2))
    for _ in range(25):
        x = a5.elem([rng.randrange(5) for _ in range(16)])
        if reduced_norm_A(x).is_zero():
            with pytest.raises(NonInvertible):
                x.inverse()
            continue
        assert x * x.inverse() == a5.one()
        assert x.inverse() * x == a5.one()
    e = EtaleQuad(F5, 2)
    be = QuatAlg(e, e.from_scalar(F5(2)), e.from_scalar(F5(3)))
    ce = QuatAlg(e, e.from_scalar(F5(1)), e.from_scalar(F5(2)))
    ae = BiquatAlg(be, ce)
    for _ in range(15):
        x = ae.elem([e.from_xy(F5(rng.randrange(5)), F5(rng.randrange(5)))
                     for _ in range(16)])
        if reduced_norm_A(x).is_zero():
            continue
        assert x * x.inverse() == ae.one()
    aq = BiquatAlg(QuatAlg(QQ, -1, -1), QuatAlg(QQ, 2, 3))
    x = aq.elem([1, 0, 2, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1])
    if not reduced_norm_A(x).is_zero():
        assert x * x.inverse() == aq.one()
    # split etale bases E = F x F, whose unit (1, 1) has both components set
    for field in (GF(7), QQ):
        e = EtaleQuad(field)
        a = BiquatAlg(QuatAlg(e, 2, 3), QuatAlg(e, 1, 2))
        inverted = 0
        for _ in range(30):
            x = a.elem([e.from_xy(field(rng.randrange(-3, 4)), field(rng.randrange(-3, 4)))
                        for _ in range(16)])
            if reduced_norm_A(x).norm().is_zero():
                with pytest.raises(NonInvertible):
                    x.inverse()
                continue
            assert x * x.inverse() == a.one()
            assert x.inverse() * x == a.one()
            inverted += 1
        assert inverted >= 10


def test_mat4_split_embedding_is_ring_hom():
    rng = random.Random(11)
    a = BiquatAlg(QuatAlg(F5, 2, 3), QuatAlg(F5, 2, 2))
    from isogeny_kit.towers import QuadTower
    tower = QuadTower(F5, [a.B.alpha, a.C.alpha])
    for _ in range(20):
        x = a.elem([rng.randrange(5) for _ in range(16)])
        y = a.elem([rng.randrange(5) for _ in range(16)])
        mx, _ = biquat_to_mat4(x, tower)
        my, _ = biquat_to_mat4(y, tower)
        mxy, _ = biquat_to_mat4(x * y, tower)
        assert mx * my == mxy


def _mixing_pairs():
    """(element of X, element of another X, element of an equal X built apart)."""
    q1, q2 = QuatAlg(F5, 2, 3), QuatAlg(F5, 2, 2)
    a1, a2 = BiquatAlg(q1, q2), BiquatAlg(q2, q1)
    e1, e2 = EtaleQuad(F5, 2), EtaleQuad(F5, 3)
    return [
        (q1.elem([1, 2, 3, 4]), q2.one(), QuatAlg(F5, 2, 3).elem([0, 1, 0, 1])),
        (a1.basis_elem(1, 2), a2.one(),
         BiquatAlg(QuatAlg(F5, 2, 3), QuatAlg(F5, 2, 2)).basis_elem(2, 1)),
        (e1.gen0() + 1, e2.one(), EtaleQuad(F5, 2).gen0()),
    ]


@pytest.mark.parametrize("kind", range(3), ids=["quat", "biquat", "etale"])
def test_coercion_between_algebras(kind):
    x, other, same = _mixing_pairs()[kind]
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
               lambda u, v: u == v):
        with pytest.raises(AlgebraMismatch):
            op(x, other)
    with pytest.raises(AlgebraMismatch):
        x.algebra(other)
    # distinct but equal descriptors still mix, and their elements compare equal
    assert same.algebra is not x.algebra and same.algebra == x.algebra
    assert (x + same) - same == x
    assert x * same == x * x.algebra(same)
    twin = x * 1
    assert twin == x and hash(twin) == hash(x)
    assert x.algebra(same) is same


def test_aminus_vectors_of_different_algebras_do_not_mix():
    a1 = BiquatAlg(QuatAlg(F5, 2, 3), QuatAlg(F5, 2, 2))
    a2 = BiquatAlg(QuatAlg(F5, 2, 2), QuatAlg(F5, 2, 3))
    u = a1.aminus([1, 0, 0], [0, 0, 0])
    w = a2.aminus([0, 1, 0], [0, 0, 0])
    with pytest.raises(AlgebraMismatch):
        u + w
    with pytest.raises(AlgebraMismatch):
        u - w
    assert u != a2.aminus([1, 0, 0], [0, 0, 0])
    # a separately built but equal descriptor still mixes
    a1b = BiquatAlg(QuatAlg(F5, 2, 3), QuatAlg(F5, 2, 2))
    v = a1b.aminus([0, 1, 0], [0, 0, 0])
    assert (u + v).coords() == [F5(1), F5(1), F5(0), F5(0), F5(0), F5(0)]
    assert (u - v) == a1.aminus([1, -1, 0], [0, 0, 0])
    assert u == a1b.aminus([1, 0, 0], [0, 0, 0])


# ---------------------------------------------------------------------------
# the reduced norm and inverse through the symplectic involution tau
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def symplectic_algebras():
    """(id, A, a zero divisor of A or None): over F_3, F_5 and Q, field E
    with symbols outside F, split E, and split E with the zero-divisor
    symbol (0, 3).  Where i^2 = 1/4 in C, 1 (x) i - 1/2 is a zero divisor
    (1/4 = 4 over F_5)."""
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    q_e, f5_e = EtaleQuad(QQ, -2), EtaleQuad(F5, 2)
    f7_split, q_split, f5_split = EtaleQuad(GF(7)), EtaleQuad(QQ), EtaleQuad(F5)
    out = [
        ("F3", QuatAlg(F3, 1, 2), QuatAlg(F3, 2, 2)),
        ("F5", QuatAlg(F5, 2, 3), QuatAlg(F5, 3, 2)),
        ("Q", QuatAlg(QQ, half, Fraction(-3, 5)), QuatAlg(QQ, quarter, Fraction(5, 4))),
        ("F5(sqrt2)", QuatAlg(f5_e, f5_e.from_xy(1, 1), 2),
         QuatAlg(f5_e, quarter, f5_e.from_xy(2, 1))),
        ("Q(sqrt-2)", QuatAlg(q_e, q_e.from_xy(1, 1), -1),
         QuatAlg(q_e, quarter, q_e.from_xy(0, 1))),
        ("F7xF7", QuatAlg(f7_split, 2, 3), QuatAlg(f7_split, 3, f7_split.from_xy(1, 5))),
        ("QxQ", QuatAlg(q_split, half, q_split.from_xy(-1, 2)),
         QuatAlg(q_split, quarter, Fraction(5, 4))),
        ("F5xF5/(0,3)", QuatAlg(f5_split, f5_split.from_xy(0, 3), 2),
         QuatAlg(f5_split, 1, 2)),
    ]
    algs = [(name, BiquatAlg(b, c)) for name, b, c in out]
    return [(name, a, a.basis_elem(0, 1) - a.from_scalar(half)
             if a.C.alpha == a.ring(quarter) else None) for name, a in algs]


SYMPLECTIC = [pytest.param(a, zd, id=name) for name, a, zd in symplectic_algebras()]


def coefficient(field):
    if field.p is None:
        return st.fractions(min_value=-6, max_value=6, max_denominator=7)
    return st.integers(0, field.p - 1)


@st.composite
def biquat_operand(draw, alg, zero_divisor):
    """An element of A: general, sparse, zero, a ring scalar, a multiple
    of the algebra's zero divisor, or (split E) a multiple of the
    idempotent (1, 0), whose norm is a nonzero zero divisor of E."""
    ring = alg.ring
    over_e = isinstance(ring, EtaleQuad)
    field = ring.field if over_e else ring
    n = 32 if over_e else 16
    coords = [field(v) for v in draw(st.lists(coefficient(field), min_size=n, max_size=n))]
    coeffs = [ring.from_xy(*coords[i:i + 2]) for i in range(0, n, 2)] if over_e else coords
    kind = draw(st.sampled_from(["general", "general", "sparse", "zero", "scalar",
                                 "divisor", "idempotent"]))
    if kind == "sparse":
        coeffs = [v if draw(st.booleans()) else ring(0) for v in coeffs]
    x = alg.elem(coeffs)
    if kind == "zero":
        return alg.zero()
    if kind == "scalar":
        return alg.from_scalar(coeffs[0])
    if kind == "divisor" and zero_divisor is not None:
        return x * zero_divisor
    if kind == "idempotent" and over_e and ring.is_split:
        return x.scale(ring.from_xy(1, 0))
    return x


def is_unit(n):
    """n in F nonzero, or n in E of nonzero norm."""
    return not (n.norm() if isinstance(n, EQElem) else n).is_zero()


@pytest.mark.parametrize("alg,zero_divisor", SYMPLECTIC)
@PROPERTY
@given(data=st.data())
def test_reduced_norm_A_matches_polynomial_and_oracle(alg, zero_divisor, data):
    x = data.draw(biquat_operand(alg, zero_divisor), label="x")
    n = reduced_norm_A(x)
    assert n == reduced_norm_A_poly(x)
    assert type(n) is type(alg.ring.one())
    if not isinstance(alg.ring, EtaleQuad):
        assert n == reduced_norm_A_oracle(x)


@pytest.mark.parametrize("alg,zero_divisor", SYMPLECTIC)
@PROPERTY
@given(data=st.data())
def test_biquat_inverse_matches_table_inverse(alg, zero_divisor, data):
    x = data.draw(biquat_operand(alg, zero_divisor), label="x")
    if not is_unit(reduced_norm_A_poly(x)):
        with pytest.raises(NonInvertible, match="BiquatElem is a zero divisor"):
            x.inverse()
        with pytest.raises(NonInvertible, match="BiquatElem is a zero divisor"):
            TableElem.inverse(x)
        return
    inv = x.inverse()
    assert inv == TableElem.inverse(x)
    assert x * inv == alg.one() and inv * x == alg.one()


@pytest.mark.parametrize("alg,zero_divisor", SYMPLECTIC)
@PROPERTY
@given(data=st.data())
def test_tau_is_a_symplectic_involution(alg, zero_divisor, data):
    basis = [alg.basis_elem(s, t) for s in range(4) for t in range(4)]
    # Sym(A, tau) has dimension 6 = 4 * 3 / 2, against 10 for iota_B (x) iota_C
    assert sum(e.tau() == e for e in basis) == 6
    assert sum(e.bar() == e for e in basis) == 10
    x = data.draw(biquat_operand(alg, zero_divisor), label="x")
    y = data.draw(biquat_operand(alg, zero_divisor), label="y")
    assert (x * y).tau() == y.tau() * x.tau()
    assert x.tau().tau() == x
    s = x * x.tau()
    assert s.tau() == s


def test_reduced_norm_oracles_raise_named_error_off_the_base_field(monkeypatch):
    def leave_base_field(m):
        return m.ring.root(0)

    a = BiquatAlg(QuatAlg(F5, 2, 3), QuatAlg(F5, 3, 2))
    x = a.elem(range(16))
    monkeypatch.setattr(algebras, "berkowitz_det", leave_base_field)
    with pytest.raises(NormNotInBaseField):
        reduced_norm_A_oracle(x)
    monkeypatch.setattr(spin_eight, "berkowitz_det", leave_base_field)
    with pytest.raises(NormNotInBaseField):
        spin_eight._norm8_split_oracle(spin_eight.M2A(a, x, a.one(), a.zero(), x))
