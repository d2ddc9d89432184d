"""Dimensions 7 and 8: the space A^- + H inside M_2(A), GSp membership and
multiplier, the generic-form decomposition, the square-class homomorphism
phi, the order-2 automorphism psi on the double cover, the 8-dimensional
action U -> g U psi(g)^-1, reflection lifts, dim-7 stabilizers of
((0,-delta),(1,0)), and the rho-twisted dim-8 groups over E.

The cover bookkeeping is written once: `_is_unit` decides when a block's
reduced norm is a unit (for the Schur step and the shift search alike),
`gsp_decompose` holds the one search for the shift v of the generic form,
and `_root_branch` picks the root t = +-sqrt(N(a)) of a lift by a
caller's test.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from .algebras import (
    AminusVector,
    BiquatAlg,
    BiquatElem,
    EQElem,
    albert_norm,
    albert_pair,
    reduced_norm_A,
    theta,
)
from .errors import (
    DecompositionFailed,
    InvariantViolated,
    IsotropicMirror,
    NonInvertible,
    NormNotInBaseField,
    NotFullySplit,
    NotSpecialOrthogonal,
    SingularReparam,
)
from .exactfield import FieldDesc, Scalar, sqrt_exact
from .linalg import Mat, berkowitz_det
from .quadforms import Isometry, QuadSpace, orthogonal_sum
from .spin_low import isometry_of_map, rotation_mirrors
from .spin_six import TwistedSpace, _scalar
from .towers import QuadTower


# ---------------------------------------------------------------------------
# 2x2 matrices over a bi-quaternion algebra
# ---------------------------------------------------------------------------

class M2A:
    """2x2 matrix over a bi-quaternion algebra."""

    __slots__ = ("A", "a", "b", "c", "d")

    def __init__(self, algebra: BiquatAlg, a, b, c, d):
        self.A = algebra
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, algebra: BiquatAlg) -> "M2A":
        return cls(algebra, algebra.one(), algebra.zero(), algebra.zero(), algebra.one())

    @classmethod
    def diag(cls, algebra: BiquatAlg, x, y) -> "M2A":
        return cls(algebra, x, algebra.zero(), algebra.zero(), y)

    def __mul__(self, other: "M2A") -> "M2A":
        return M2A(self.A,
                   self.a * other.a + self.b * other.c,
                   self.a * other.b + self.b * other.d,
                   self.c * other.a + self.d * other.c,
                   self.c * other.b + self.d * other.d)

    def __add__(self, other: "M2A") -> "M2A":
        return M2A(self.A, self.a + other.a, self.b + other.b,
                   self.c + other.c, self.d + other.d)

    def scale(self, s) -> "M2A":
        return M2A(self.A, self.a.scale(s), self.b.scale(s),
                   self.c.scale(s), self.d.scale(s))

    def __neg__(self):
        return M2A(self.A, -self.a, -self.b, -self.c, -self.d)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        return (isinstance(other, M2A) and self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __repr__(self):
        return "M2A(%r, %r; %r, %r)" % (self.a, self.b, self.c, self.d)


def _zero_aminus(algebra: BiquatAlg) -> AminusVector:
    zero = algebra.ring.zero()
    return algebra.aminus([zero] * 3, [zero] * 3)


def _is_unit(n) -> bool:
    """Whether a reduced norm is a unit of its ring: nonzero over F, of
    nonzero E-norm over E (over a split E a nonzero norm can still be a
    zero divisor)."""
    return not (n.norm() if isinstance(n, EQElem) else n).is_zero()


def reduced_norm_M2A(m: M2A):
    """Degree-8 reduced norm of a 2x2 matrix over A.

    Schur-style reduction N(a) N(d - c a^-1 b) when a block (after row or
    column swaps, or a unipotent shear) has a unit norm; the 8x8 split
    embedding handles the rest.
    """
    algebra = m.A
    ring = algebra.ring

    def try_schur(mm: M2A):
        n = reduced_norm_A(mm.a)
        if not _is_unit(n):
            return None
        return n * reduced_norm_A(mm.d - mm.c * mm.a.inverse() * mm.b)

    out = try_schur(m)
    if out is not None:
        return out
    out = try_schur(M2A(algebra, m.c, m.d, m.a, m.b))  # row swap, norm 1
    if out is not None:
        return out
    out = try_schur(M2A(algebra, m.b, m.a, m.d, m.c))  # column swap
    if out is not None:
        return out
    for v in _shear_candidates(algebra):
        sheared = M2A(algebra, m.a + v.embed() * m.c, m.b + v.embed() * m.d, m.c, m.d)
        out = try_schur(sheared)
        if out is not None:
            return out
    if isinstance(ring, FieldDesc):
        return _norm8_split_oracle(m)
    raise NonInvertible("could not reduce; matrix may be singular")


def _shear_candidates(algebra: BiquatAlg):
    """Deterministic anisotropic shear vectors for the genie search, built
    once per descriptor; callers only read the list."""
    if algebra._shears is None:
        algebra._shears = _build_shear_candidates(algebra)
    return algebra._shears


def _build_shear_candidates(algebra: BiquatAlg):
    ring = algebra.ring
    one, zero = ring.one(), ring.zero()
    ws = [
        algebra.aminus([one, zero, zero], [zero, zero, zero]),
        algebra.aminus([zero, one, zero], [zero, zero, zero]),
        algebra.aminus([zero, zero, zero], [one, zero, zero]),
        algebra.aminus([zero, zero, zero], [zero, one, zero]),
        algebra.aminus([one, zero, zero], [zero, one, zero]),
        algebra.aminus([zero, one, one], [one, zero, zero]),
    ]
    field = ring if isinstance(ring, FieldDesc) else ring.field
    if field.p is not None:
        scalars = [field(s) for s in range(1, field.p)]
    else:
        scalars = [field(s) for s in range(1, 9)]
    out = []
    for w in ws:
        if albert_norm(w).is_zero():
            continue
        for s in scalars:
            out.append(w.scale(ring(s) if not isinstance(ring, FieldDesc) else s))
    return out


def _norm8_split_oracle(m: M2A) -> Scalar:
    """8x8 determinant over F(sqrt(alpha_B), sqrt(alpha_C))."""
    from .algebras import biquat_to_mat4
    algebra = m.A
    tower = QuadTower(algebra.ring, [algebra.B.alpha, algebra.C.alpha])
    blocks = [biquat_to_mat4(x, tower)[0] for x in m.entries()]
    # the 4x4 blocks (a, b) over (c, d)
    rows = [blocks[k].rows[i] + blocks[k + 1].rows[i] for k in (0, 2) for i in range(4)]
    d = berkowitz_det(Mat(tower, rows))
    if not d.is_scalar():
        raise NormNotInBaseField("degree-8 norm left the base field")
    return d.scalar_part()


# ---------------------------------------------------------------------------
# the 8-dimensional space and GSp membership
# ---------------------------------------------------------------------------

class Vec8:
    """u + hyperbolic coordinates (p, q), embedded as ((u, -p), (q, -u~))."""

    __slots__ = ("A", "u", "p", "q")

    def __init__(self, algebra: BiquatAlg, u: AminusVector, p, q):
        self.A = algebra
        self.u = u
        self.p = algebra.ring(p)
        self.q = algebra.ring(q)

    def vnorm(self):
        return albert_norm(self.u) - self.p * self.q

    def matrix(self) -> M2A:
        alg = self.A
        return M2A(alg, self.u.embed(), alg.from_scalar(-self.p),
                   alg.from_scalar(self.q), -theta(self.u).embed())

    def hat_psi(self) -> "Vec8":
        """Id_H + theta."""
        return Vec8(self.A, theta(self.u), self.p, self.q)

    def coords(self):
        return self.u.coords() + [self.p, self.q]

    def scale(self, s) -> "Vec8":
        return Vec8(self.A, self.u.scale(s), self.p * s, self.q * s)

    def __eq__(self, other):
        return (isinstance(other, Vec8) and self.u == other.u
                and self.p == other.p and self.q == other.q)

    def __repr__(self):
        return "Vec8(u=%r, p=%s, q=%s)" % (self.u, self.p, self.q)


def vec8_from_matrix(m: M2A) -> Vec8:
    u = m.a.to_aminus()
    if m.d != -theta(u).embed():
        raise ValueError("matrix is not in the A^- + H embedding")
    if not m.b.is_scalar() or not m.c.is_scalar():
        raise ValueError("off-diagonal entries are not scalars")
    return Vec8(m.A, u, -m.b.scalar_part(), m.c.scalar_part())


def vec8_from_coords(algebra: BiquatAlg, coords) -> Vec8:
    return Vec8(algebra, algebra.aminus_of(coords), coords[6], coords[7])


def _plus_hyperbolic(space: QuadSpace) -> QuadSpace:
    """space orthogonal-plus the hyperbolic plane (p, q) of norm -pq."""
    field = space.field
    half = field(2).inverse()
    hyp = QuadSpace(field, Mat(field, [[field.zero(), -half], [-half, field.zero()]]))
    return orthogonal_sum(space, hyp)


def vec8_space(algebra: BiquatAlg) -> QuadSpace:
    """Albert form orthogonal-plus hyperbolic (p, q): |U|^2 = |u|^2 - pq."""
    return _plus_hyperbolic(algebra.albert_space())


class GSpElem:
    """Member of GSp_A((1,0),(0,-1)) with multiplier m."""

    __slots__ = ("mat", "m")

    def __init__(self, mat: M2A, m):
        self.mat = mat
        self.m = m

    def inverse_matrix(self) -> M2A:
        """M^-1 = J bar_adj(M) J / m with J = diag(1, -1), from the GSp
        relation: ((bar d, bar b), (bar c, bar a)) / m."""
        a, b, c, d = self.mat.entries()
        return M2A(self.mat.A, d.bar(), b.bar(), c.bar(), a.bar()).scale(self.m.inverse())


def gsp_membership(m: M2A) -> Optional[GSpElem]:
    """The GSp relations: a bar(b), c bar(d) in A^-; a bar(d) + b bar(c) = m
    scalar; and (the GSp refinement) reduced norm = m^4."""
    a, b, c, d = m.entries()
    if not (a * b.bar()).in_minus_space():
        return None
    if not (c * d.bar()).in_minus_space():
        return None
    s = a * d.bar() + b * c.bar()
    if not s.is_scalar():
        return None
    mult = s.scalar_part()
    if mult.is_zero():
        return None
    if reduced_norm_M2A(m) != mult * mult * mult * mult:
        return None
    return GSpElem(m, mult)


# ---------------------------------------------------------------------------
# D, the generic form, and the double cover
# ---------------------------------------------------------------------------

def D(eta: AminusVector, omega: AminusVector):
    """D(eta, omega) = 1 + 2<eta, omega~> + |omega|^2 |eta|^2."""
    ring = eta.algebra.ring
    pr = albert_pair(eta, theta(omega))
    return ring.one() + pr + pr + albert_norm(omega) * albert_norm(eta)


def normsq_check(eta: AminusVector, omega: AminusVector) -> bool:
    """(1 + eta omega)(1 + omega~ eta~) = D and N(1 + eta omega) = D^2."""
    algebra = eta.algebra
    x = algebra.one() + eta.embed() * omega.embed()
    y = algebra.one() + theta(omega).embed() * theta(eta).embed()
    dd = D(eta, omega)
    return (x * y == algebra.from_scalar(dd)
            and y * x == algebra.from_scalar(dd)
            and reduced_norm_A(x) == dd * dd)


class GenForm:
    """Parameters (v, a, alpha, beta, m) of the generic-form factorization
    ((1,v),(0,1)) ((1,0),(beta,1)) ((a,0),(0,m bar(a)^-1)) ((1,alpha),(0,1))."""

    __slots__ = ("A", "v", "a", "alpha", "beta", "m", "_mat", "_a_inv", "_a_inv_guess")

    def __init__(self, algebra: BiquatAlg, v, a, alpha, beta, m):
        self.A = algebra
        self.v, self.a, self.alpha, self.beta, self.m = v, a, alpha, beta, m
        self._mat = self._a_inv = self._a_inv_guess = None

    def a_inverse(self) -> BiquatElem:
        """a^-1, computed once, or a guess confirmed by one product; bar(a)^-1
        is its bar (an anti-automorphism)."""
        if self._a_inv is None:
            g = self._a_inv_guess
            ok = g is not None and self.a * g == self.A.one()
            self._a_inv = g if ok else self.a.inverse()
        return self._a_inv

    def assemble(self) -> M2A:
        """The product in closed form, ((X, X alpha + v d), (beta a, beta a
        alpha + d)) with X = a + v (beta a), d = m bar(a^-1): 5 A-products."""
        if self._mat is None:
            v, alpha = self.v.embed(), self.alpha.embed()
            d = self.a_inverse().bar().scale(self.m)
            ba = self.beta.embed() * self.a
            x = self.a + v * ba
            self._mat = M2A(self.A, x, x * alpha + v * d, ba, ba * alpha + d)
        return self._mat

    def __repr__(self):
        return "GenForm(v=%r, m=%s)" % (self.v, self.m)


def gsp_decompose(g: GSpElem, v_constraints: Optional[List[M2A]] = None) -> GenForm:
    """Generic-form parameters for g; searches v with a - v c invertible.

    v = 0 is tried first, then `_shear_candidates` in order, built only if
    needed, then over F_p with p <= WALK_MAX_P every nonzero vector of
    A^-(F_p), walked lazily, so that an exhausted search over such a field
    is a certificate that no v exists.  `v_constraints` lists further
    matrices whose sheared upper-left block must also become invertible
    for the same v (used by the cover product).
    """
    algebra = g.mat.A
    mats = [g.mat] + list(v_constraints or [])
    if all(_is_unit(reduced_norm_A(m.a)) for m in mats):
        return _decompose_at(g, None)
    for v in itertools.chain(_shear_candidates(algebra), _aminus_walk(algebra)):
        ve = v.embed()
        if all(_is_unit(reduced_norm_A(m.a - ve * m.c)) for m in mats):
            return _decompose_at(g, v)
    raise DecompositionFailed("no unipotent shift renders the block invertible%s" % (
        " (all of A^-(F_%d) tried)" % algebra.ring.p if _walks(algebra.ring) else ""))


WALK_MAX_P = 5      # A^-(F_p) has p^6 vectors: 729 over F_3, 15 625 over F_5


def _walks(ring) -> bool:
    return isinstance(ring, FieldDesc) and ring.p is not None and ring.p <= WALK_MAX_P


def _aminus_walk(algebra: BiquatAlg):
    """Every nonzero vector of A^-(F_p) in product order when p <=
    WALK_MAX_P; none otherwise."""
    if _walks(algebra.ring):
        coords = itertools.product(algebra.ring.elements(), repeat=6)
        next(coords)    # v = 0
        for x in coords:
            yield algebra.aminus(list(x[:3]), list(x[3:]))


def _decompose_at(g: GSpElem, v: Optional[AminusVector]) -> GenForm:
    algebra = g.mat.A
    a, b = g.mat.a, g.mat.b
    if v is None:
        v = _zero_aminus(algebra)
    else:
        ve = v.embed()
        a, b = a - ve * g.mat.c, b - ve * g.mat.d
    a_inv = a.inverse()
    alpha = (a_inv * b).to_aminus()
    beta = (g.mat.c * a_inv).to_aminus()
    gf = GenForm(algebra, v, a, alpha, beta, g.m)
    gf._a_inv = a_inv
    if gf.assemble() != g.mat:
        raise InvariantViolated("generic form failed to reassemble")
    return gf


def phi(g: GSpElem):
    """Square class of N_A(a) for any generic-form decomposition."""
    from .exactfield import square_class
    gf = gsp_decompose(g)
    return square_class(reduced_norm_A(gf.a))


def comp_reparam(gf: GenForm, new_v: AminusVector) -> Tuple[GenForm, object]:
    """Reparametrize to parameter new_v; returns (genform, root_factor).

    root_factor = D(v - new_v, beta) multiplies the cover root.  At new_v =
    v that is D(0, beta) = 1 and the form is gf itself.
    """
    algebra = gf.A
    if new_v == gf.v:
        return gf, algebra.ring.one()
    w_minus_v = new_v - gf.v
    dd = D(-w_minus_v, gf.beta)  # D(v - w, beta)
    if not _is_unit(dd):
        raise SingularReparam("D(v - w, beta) is not a unit")
    one = algebra.one()
    c = (one - w_minus_v.embed() * gf.beta.embed()) * gf.a
    dd_inv = dd.inverse()
    delta = (gf.beta - theta(w_minus_v).scale(albert_norm(gf.beta))).scale(dd_inv)
    mid = (w_minus_v - theta(gf.beta).scale(albert_norm(w_minus_v))).scale(dd_inv)
    a_inv = gf.a_inverse()
    gamma_e = gf.alpha.embed() - (a_inv * mid.embed() * a_inv.bar()).scale(gf.m)
    out = GenForm(algebra, new_v, c, gamma_e.to_aminus(), delta, gf.m)
    if out.assemble() != gf.assemble():
        raise InvariantViolated("reparametrization changed the matrix")
    return out, dd


class CoveredGSpElem:
    """Element of the double cover: a generic form plus a root t of N(a)."""

    __slots__ = ("gf", "t", "_psi_inv_mat")

    def __init__(self, gf: GenForm, t, check: bool = True):
        self.gf = gf
        self.t = gf.A.ring(t)
        self._psi_inv_mat = None
        if check and reduced_norm_A(gf.a) != self.t * self.t:
            raise NotSpecialOrthogonal("t^2 != N(a)")

    def matrix(self) -> M2A:
        return self.gf.assemble()

    def as_gsp(self) -> GSpElem:
        return GSpElem(self.matrix(), self.gf.m)

    def reparam(self, new_v: AminusVector) -> "CoveredGSpElem":
        gf2, factor = comp_reparam(self.gf, new_v)
        return CoveredGSpElem(gf2, self.t * factor, check=False)

    def __eq__(self, other):
        if not isinstance(other, CoveredGSpElem):
            return NotImplemented
        if self.matrix() != other.matrix() or self.gf.m != other.gf.m:
            return False
        me = self.reparam(other.gf.v)
        return me.t == other.t

    def __repr__(self):
        return "CoveredGSpElem(m=%s, t=%s)" % (self.gf.m, self.t)


def _psi_diagonal(a: BiquatElem, t):
    """The psi rule on the diagonal parameter: (a, t) -> (t bar(a)^-1, t)."""
    return a.bar().inverse().scale(t), t


def psi(x: CoveredGSpElem) -> CoveredGSpElem:
    """Replace (a, t) by (t bar(a)^-1, t) and v, alpha, beta by theta-images."""
    gf = x.gf
    new_a, new_t = _psi_diagonal(gf.a, x.t)
    out = GenForm(gf.A, theta(gf.v), new_a, theta(gf.alpha), theta(gf.beta), gf.m)
    if _is_unit(x.t):
        # t bar(a)^-1 has the inverse bar(a) t^-1; a_inverse confirms it on
        # first use, so a _psi_diagonal that returns anything else is inverted anew
        out._a_inv_guess = gf.a.bar().scale(x.t.inverse())
    return CoveredGSpElem(out, new_t, check=False)


def cover_mul(x: CoveredGSpElem, y: CoveredGSpElem) -> CoveredGSpElem:
    """Product in the double cover, with the root tracked through the
    generic-form product formula."""
    mx, my = x.matrix(), y.matrix()
    prod = mx * my
    m_prod = x.gf.m * y.gf.m
    target = GSpElem(prod, m_prod)
    # one v must serve both x and the product
    gf_prod = gsp_decompose(target, v_constraints=[mx])
    v = gf_prod.v
    x2 = x.reparam(v)
    dd = D(x2.gf.alpha + y.gf.v, y.gf.beta)
    root = x2.t * dd * y.t
    return CoveredGSpElem(gf_prod, root, check=False)


def cover_identity(algebra: BiquatAlg) -> CoveredGSpElem:
    ring = algebra.ring
    zero_v = _zero_aminus(algebra)
    gf = GenForm(algebra, zero_v, algebra.one(), zero_v, zero_v, ring.one())
    return CoveredGSpElem(gf, ring.one(), check=False)


def cover_inverse(x: CoveredGSpElem) -> CoveredGSpElem:
    """(g, t)^-1; root solved from the product formula against identity.

    gf_inv.v also makes x's block invertible, and the identity decomposes
    at every v with root 1 (D(eta, 0) = 1), so the cover_mul formula at
    gf_inv.v pins the one root of the inverse.
    """
    inv_mat = x.as_gsp().inverse_matrix()
    m_inv = x.gf.m.inverse()
    gf_inv = gsp_decompose(GSpElem(inv_mat, m_inv), v_constraints=[x.matrix()])
    x2 = x.reparam(gf_inv.v)
    dd = D(x2.gf.alpha + gf_inv.v, gf_inv.beta)
    t_inv = (x2.t * dd).inverse()
    return CoveredGSpElem(gf_inv, t_inv, check=False)


def cover_rho(x: CoveredGSpElem) -> CoveredGSpElem:
    """Coefficientwise Galois action on a cover element over A_E."""
    gf = x.gf
    rho_am = lambda u: u.embed().rho().to_aminus()
    out = GenForm(gf.A, rho_am(gf.v), gf.a.rho(), rho_am(gf.alpha),
                  rho_am(gf.beta), gf.m.conj())
    return CoveredGSpElem(out, x.t.conj(), check=False)


# ---------------------------------------------------------------------------
# the action on A^- + H
# ---------------------------------------------------------------------------

def act8(x: CoveredGSpElem, u: Vec8) -> Vec8:
    """U -> g U psi(g)^-1."""
    g = x.matrix()
    if x._psi_inv_mat is None:
        x._psi_inv_mat = psi(x).as_gsp().inverse_matrix()
    return vec8_from_matrix(g * u.matrix() * x._psi_inv_mat)


def act8_isometry(x: CoveredGSpElem, space: QuadSpace) -> Isometry:
    return isometry_of_map(space, lambda u: act8(x, u), Vec8.coords,
                           lambda c: vec8_from_coords(x.gf.A, c))


def hpsi_gsp_relation(x: CoveredGSpElem, u: Vec8) -> bool:
    """hat_psi(g U psi(g)^-1) == psi(g) hat_psi(U) g^-1."""
    lhs = act8(x, u).hat_psi().matrix()
    rhs = psi(x).matrix() * u.hat_psi().matrix() * x.as_gsp().inverse_matrix()
    return lhs == rhs


def ref8_lift(g: Vec8) -> Tuple[CoveredGSpElem, bool]:
    """Lift of an anisotropic vector with psi(lift) = -hat_psi(g).

    The reflection in g sends U to act8(lift, hat_psi(U)); flag True
    records the hat_psi pre-composition.
    """
    n = g.vnorm()
    if n.is_zero():
        raise IsotropicMirror("mirror has norm 0")
    member = gsp_membership(g.matrix())
    if member is None:
        raise IsotropicMirror("anisotropic vector failed GSp membership")
    gf = gsp_decompose(member)
    target = -g.hat_psi().matrix()
    t = _sqrt_in_ring(gf.A.ring, reduced_norm_A(gf.a))
    if t is None:
        raise NotSpecialOrthogonal("N(a) is not a square")
    x = _root_branch(gf, t, lambda x: psi(x).matrix() == target)
    if x is None:
        raise NotSpecialOrthogonal("no root branch matches -hat_psi(g)")
    return x, True


def _root_branch(gf: GenForm, root, accept) -> Optional[CoveredGSpElem]:
    """The first of the lifts (gf, root), (gf, -root) that `accept` takes."""
    for t in (root, -root):
        x = CoveredGSpElem(gf, t, check=False)
        if accept(x):
            return x
    return None


def _sqrt_in_ring(ring, x):
    if isinstance(ring, FieldDesc):
        return sqrt_exact(x)
    return eq_sqrt(x)


def eq_sqrt(z: EQElem) -> Optional[EQElem]:
    """A square root in an etale quadratic algebra, if one exists."""
    e = z.algebra
    if e.is_split:
        rx, ry = sqrt_exact(z.x), sqrt_exact(z.y)
        if rx is None or ry is None:
            return None
        return e.from_xy(rx, ry)
    if z.y.is_zero():
        r = sqrt_exact(z.x)
        if r is not None:
            return e.from_xy(r, 0)
        r = sqrt_exact(z.x / e.d)
        if r is not None:
            return e.from_xy(0, r)
        return None
    disc = sqrt_exact(z.norm())
    if disc is None:
        return None
    for sgn in (disc, -disc):
        yy = (z.x - sgn) / (e.d + e.d)  # y^2 = (x -+ sqrt(N)) / (2d)
        y = sqrt_exact(yy)
        if y is None or y.is_zero():
            continue
        x = z.y / (y + y)
        cand = e.from_xy(x, y)
        if cand * cand == z:
            return cand
    return None


def ref8_apply(lift: CoveredGSpElem, u: Vec8) -> Vec8:
    return act8(lift, u.hat_psi())


def dim8_lift(t_iso: Isometry, algebra: BiquatAlg) -> CoveredGSpElem:
    """Cover element acting as t_iso on A^- + H (t_iso in SO)."""
    mirrors = rotation_mirrors(t_iso, algebra.ring)
    acc = cover_identity(algebra)
    for i in range(0, len(mirrors), 2):
        g1, _ = ref8_lift(vec8_from_coords(algebra, mirrors[i]))
        g2, _ = ref8_lift(vec8_from_coords(algebra, mirrors[i + 1]))
        acc = cover_mul(acc, cover_mul(g1, psi(g2)))
    return acc


# ---------------------------------------------------------------------------
# dimension 7: stabilizer of ((0, -delta), (1, 0))
# ---------------------------------------------------------------------------

def dim7_q(algebra: BiquatAlg, delta) -> Vec8:
    ring = algebra.ring
    return Vec8(algebra, _zero_aminus(algebra), ring(delta), ring.one())


class Dim7StabForm:
    """Stabilizer member with its available structured presentations.

    first = (a, t, beta) when a is invertible; the matrix then reads
    ((a, -t delta beta~ bar(a)^-1), (beta a, t bar(a)^-1)).  second =
    (c, s, w) when c is invertible: ((w c, -s delta bar(c)^-1),
    (c, s w~ bar(c)^-1)).  At least one applies (block invertibility)."""

    __slots__ = ("first", "second", "is_spin", "cover")

    def __init__(self, first, second, is_spin, cover):
        self.first = first
        self.second = second
        self.is_spin = is_spin
        self.cover = cover

    def __repr__(self):
        return "Dim7StabForm(first=%s, second=%s, spin=%s)" % (
            self.first is not None, self.second is not None, self.is_spin)


def dim7_stab_membership(g: GSpElem, delta) -> Optional[Dim7StabForm]:
    """Classify g as a stabilizer of ((0,-delta),(1,0)), if it is one.

    Checks a bar(d), b bar(c) scalar with the square relations of the
    theorem, then verifies exact stabilization through the action of the
    canonical cover branch.
    """
    algebra = g.mat.A
    ring = algebra.ring
    delta = ring(delta)
    a, b, c, d = g.mat.entries()
    ad = a * d.bar()
    bc = b * c.bar()
    if not ad.is_scalar() or not bc.is_scalar():
        return None
    t1 = ad.scalar_part()
    s1 = bc.scalar_part()
    if (t1 + s1) != g.m:
        return None
    # square relations of the theorem
    if t1 * t1 != reduced_norm_A(a) or s1 * s1 != delta * delta * reduced_norm_A(c):
        return None
    first = second = None
    if not t1.is_zero():
        beta = (c * a.inverse()).to_aminus()
        first = (a, t1, beta)
    if not s1.is_zero():
        s = -s1 / delta
        w = (a * c.inverse()).to_aminus()
        second = (c, s, w)
    if first is None and second is None:
        return None
    gf = gsp_decompose(g)
    # with t1 != 0 the block a is invertible, so gf.a = a and N(a) = t1^2
    root = t1 if first is not None else _sqrt_in_ring(ring, reduced_norm_A(gf.a))
    if root is None:
        return None
    q = dim7_q(algebra, delta)
    cover = _root_branch(gf, root, lambda x: act8(x, q) == q)
    if cover is None:
        return None
    return Dim7StabForm(first, second, g.m == ring.one(), cover)


def deltadep_conjugate_scalar(g: GSpElem, r) -> GSpElem:
    """Conjugation by diag(1, 1/r): maps delta-stabilizers to r^2 delta."""
    ring = g.mat.A.ring
    r = ring(r)
    a, b, c, d = g.mat.entries()
    return GSpElem(M2A(g.mat.A, a, b.scale(r), c.scale(r.inverse()), d), g.m)


def deltadep_conjugate_norm(g: GSpElem, e: BiquatElem) -> GSpElem:
    """Conjugation by diag(e, bar(e)^-1): delta multiplied by N_A(e)."""
    a, b, c, d = g.mat.entries()
    ei = e.inverse()
    eb = e.bar()
    ebi = eb.inverse()
    return GSpElem(M2A(g.mat.A, e * a * ei, e * b * eb,
                       ebi * c * ei, ebi * d * eb), g.m)


# ---------------------------------------------------------------------------
# triality (fully split A)
# ---------------------------------------------------------------------------

def triality_kernels(algebra: BiquatAlg) -> dict:
    """The order-2 kernel elements of the three 8-dimensional representations
    of the covered symplectic group, for fully split A (both factors split).

    Returns cover elements keyed by 'action', 'projection', 'psi_projection',
    each verified to act trivially in its own representation only.
    """
    field = algebra.ring
    if not isinstance(field, FieldDesc):
        raise NotFullySplit("expects a base FieldDesc")
    if field.p is None:
        from .algebras import quat_is_split
        if not (quat_is_split(algebra.B) and quat_is_split(algebra.C)):
            raise NotFullySplit("A is not M_4(F)")
    space = vec8_space(algebra)
    zero_v = _zero_aminus(algebra)

    def scalar_cover(sign_a: int, t_val: int) -> CoveredGSpElem:
        a = algebra.one() if sign_a == 1 else -algebra.one()
        gf = GenForm(algebra, zero_v, a, zero_v, zero_v, field(1))
        return CoveredGSpElem(gf, field(t_val), check=False)

    minus_minus = scalar_cover(-1, 1)   # -I with psi-image -I
    plus_minus = scalar_cover(1, -1)    # I with psi-image -I
    minus_plus = scalar_cover(-1, -1)   # -I with psi-image I
    ident = Mat.identity(field, 8)

    def acts_trivially(x):
        return act8_isometry(x, space).matrix == ident

    def proj_trivial(x):
        return x.matrix() == M2A.identity(algebra)

    def psi_proj_trivial(x):
        return psi(x).matrix() == M2A.identity(algebra)

    kernels = {"action": acts_trivially, "projection": proj_trivial,
               "psi_projection": psi_proj_trivial}
    elems = {"action": minus_minus, "projection": plus_minus,
             "psi_projection": minus_plus}
    for name, x in elems.items():
        # each element lies in its own kernel and in neither of the others
        if [k for k, trivial in kernels.items() if trivial(x)] != [name]:
            raise InvariantViolated("the %s kernel element is misplaced" % name)
    return elems


# ---------------------------------------------------------------------------
# rho-twisted dimension 8 (over E)
# ---------------------------------------------------------------------------

class Twisted8:
    """(A_E^-)_(rho,Q) + H inside M_2(A_E), with the psi_Qhat = rho test."""

    def __init__(self, ts: TwistedSpace):
        self.ts = ts
        self.AE = ts.AE
        self.E = ts.E
        self.space = _plus_hyperbolic(ts.space)
        self.q_hat = self._build_q_hat()
        self.q_hat_inv = cover_inverse(self.q_hat)
        self.q_hat_gsp_inv_mat = self.q_hat.as_gsp().inverse_matrix()

    def _build_q_hat(self) -> CoveredGSpElem:
        """Covered element over ((Q, 0), (0, -Q~)) with root |Q|^2."""
        ts = self.ts
        zero_v = _zero_aminus(self.AE)
        q_norm = ts.E.from_scalar(ts.q_norm)
        gf = GenForm(self.AE, zero_v, ts.QE, zero_v, zero_v, q_norm)
        return CoveredGSpElem(gf, q_norm, check=False)

    def vec8(self, u: BiquatElem, p, q) -> Vec8:
        return Vec8(self.AE, u.to_aminus(), p, q)

    def from_coords(self, coords) -> Vec8:
        u = self.ts.from_vec(coords[:6])
        return self.vec8(u, coords[6], coords[7])

    def to_coords(self, v: Vec8):
        uc = self.ts.to_vec(v.u.embed())
        return uc + [_scalar(v.p), _scalar(v.q)]

    def contains_vec(self, v: Vec8) -> bool:
        return (self.ts.contains(v.u.embed())
                and v.p.is_scalar() and v.q.is_scalar())

    def psi_qhat(self, x: CoveredGSpElem) -> CoveredGSpElem:
        return cover_mul(cover_mul(self.q_hat, psi(x)), self.q_hat_inv)

    def membership(self, g: M2A) -> Optional["RhoQ8Elem"]:
        """psi_Qhat(x) = x^rho for a lift x of g, with multiplier in F^x."""
        member = gsp_membership(g)
        if member is None:
            return None
        if not member.m.is_scalar() or member.m.scalar_part().is_zero():
            return None
        gf = gsp_decompose(member)
        root = eq_sqrt(reduced_norm_A(gf.a))
        if root is None:
            return None
        x = _root_branch(gf, root, lambda x: self.psi_qhat(x) == cover_rho(x))
        return None if x is None else RhoQ8Elem(x)


class RhoQ8Elem:
    """Member of the rho-twisted GSp group acting on the twisted 8-space."""

    __slots__ = ("x",)

    def __init__(self, x: CoveredGSpElem):
        self.x = x

    @property
    def m(self):
        return self.x.gf.m.scalar_part()

    def act_on(self, v: Vec8) -> Vec8:
        return act8(self.x, v)

    def __repr__(self):
        return "RhoQ8Elem(m=%s)" % self.m


def ref8igen_lift(tw8: Twisted8, g: Vec8) -> RhoQ8Elem:
    """For anisotropic g in the twisted 8-space, g * Qhat^-1 is a member.

    Both root branches of the lift satisfy the membership relation; the
    branch is pinned by requiring the composed reflection to invert g.
    """
    n = g.vnorm()
    if not n.is_scalar() or n.scalar_part().is_zero():
        raise IsotropicMirror("mirror must be anisotropic with F-norm")
    prod = g.matrix() * tw8.q_hat_gsp_inv_mat
    member = tw8.membership(prod)
    if member is None:
        raise NotSpecialOrthogonal("g Qhat^-1 failed the twisted membership")
    minus_g = g.scale(tw8.AE.ring(-1))
    x = _root_branch(member.x.gf, member.x.t, lambda x: ref8igen_apply(
        tw8, RhoQ8Elem(x), g) == minus_g)
    if x is None:
        raise NotSpecialOrthogonal("no root branch composes to the reflection")
    return RhoQ8Elem(x)


def ref8igen_apply(tw8: Twisted8, lift: RhoQ8Elem, v: Vec8) -> Vec8:
    """Reflection: compose the Qhat-theta action with the lift's action."""
    qtheta_v = act8(tw8.q_hat, v.hat_psi())
    return lift.act_on(qtheta_v)


# ---------------------------------------------------------------------------
# QthetaQrel-style helpers
# ---------------------------------------------------------------------------

def one_plus_eta_omega_multiplier(ts: TwistedSpace, eta: BiquatElem,
                                  omega: BiquatElem) -> Optional[Scalar]:
    """Multiplier of 1 + eta omega for eta in twisted(Q), omega in
    twisted(Q~); equals D(eta, omega) by the combination lemma."""
    x = ts.AE.one() + eta * omega
    return ts.multiplier(x)
