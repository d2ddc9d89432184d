"""Dimensions 5 and 6: the metaplectic-like double cover of the norm-square
subgroup of a bi-quaternion algebra acting on the Albert form, Q-stabilizer
groups (dimension 5), the rho-twisted spaces of general discriminant
(dimension 6) with their t^2-similitude groups, and the norm group of
M_2(B), decided by Hasse-Schilling without a search.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .algebras import (
    AminusVector,
    BiquatAlg,
    BiquatElem,
    EtaleQuad,
    QuatAlg,
    albert_norm,
    albert_pair,
    reduced_norm_A,
    theta,
)
from .errors import (
    CoverInvariantViolated,
    InvariantViolated,
    IsotropicMirror,
    IsotropicQ,
    NonInvertible,
)
from .exactfield import Scalar
from .linalg import Mat
from .quadforms import Isometry, QuadSpace, complement
from .spin_low import isometry_of_map, rotation_mirrors


class CoveredElem:
    """Pair (g, t) with N_A(g) = t^2, multiplying coordinatewise."""

    __slots__ = ("g", "t")

    def __init__(self, g: BiquatElem, t, check: bool = True):
        self.g = g
        self.t = g.algebra.ring(t)
        if check and reduced_norm_A(g) != self.t * self.t:
            raise CoverInvariantViolated("N(g) != t^2")

    def __mul__(self, other: "CoveredElem") -> "CoveredElem":
        return CoveredElem(self.g * other.g, self.t * other.t, check=False)

    def act_on(self, u: AminusVector) -> AminusVector:
        """u -> g u bar(g) / t."""
        z = (self.g * u.embed() * self.g.bar()).scale(self.t.inverse())
        return z.to_aminus()

    def __eq__(self, other):
        return isinstance(other, CoveredElem) and self.g == other.g and self.t == other.t

    def __repr__(self):
        return "CoveredElem(%r, t=%s)" % (self.g, self.t)


def cover_act_isometry(a: CoveredElem, space: QuadSpace) -> Isometry:
    """Matrix of the action on the Albert basis of A^-."""
    return isometry_of_map(space, a.act_on, AminusVector.coords, a.g.algebra.aminus_of)


def ref6d1_map(g: AminusVector) -> Callable[[AminusVector], AminusVector]:
    """u -> g theta(u) bar(g) / |g|^2, the reflection inverting g."""
    n = albert_norm(g)
    if n.is_zero():
        raise IsotropicMirror("mirror is isotropic")
    ge = g.embed()
    ninv = n.inverse()

    def refl(u: AminusVector) -> AminusVector:
        return (ge * theta(u).embed() * ge.bar()).scale(ninv).to_aminus()

    return refl


def pair_lift(v: AminusVector, w: AminusVector) -> CoveredElem:
    """Lift of reflect(v) o reflect(w): (-v theta(w), |v|^2 |w|^2)."""
    nv, nw = albert_norm(v), albert_norm(w)
    if nv.is_zero() or nw.is_zero():
        raise IsotropicMirror("mirror is isotropic")
    return CoveredElem(-(v.embed() * theta(w).embed()), nv * nw, check=False)


def dim6d1_lift(t_iso: Isometry, algebra: BiquatAlg) -> CoveredElem:
    """Cover element acting as t_iso on A^-; t_iso in SO(Albert space)."""
    mirrors = [algebra.aminus_of(v) for v in rotation_mirrors(t_iso, algebra.ring)]
    acc = CoveredElem(algebra.one(), algebra.ring(1), check=False)
    for m in range(0, len(mirrors), 2):
        acc = acc * pair_lift(mirrors[m], mirrors[m + 1])
    return acc


def axa_rel_check(g: BiquatElem, u: AminusVector) -> bool:
    """theta(g u bar(g)) == N(g) bar(g)^-1 theta(u) g^-1, exactly."""
    n = reduced_norm_A(g)
    if n.is_zero():
        raise NonInvertible("g must be invertible")
    w = (g * u.embed() * g.bar()).to_aminus()
    lhs = theta(w).embed()
    rhs = (g.bar().inverse() * theta(u).embed() * g.inverse()).scale(n)
    return lhs == rhs


# ---------------------------------------------------------------------------
# dimension 5: stabilizer of an anisotropic Q
# ---------------------------------------------------------------------------

class QStabElem:
    """g in A^x with g Q bar(g) = t Q; N(g) = t^2 holds automatically."""

    __slots__ = ("g", "Q", "t")

    def __init__(self, g: BiquatElem, q: AminusVector, t: Scalar):
        self.g = g
        self.Q = q
        self.t = t

    def as_cover(self) -> CoveredElem:
        return CoveredElem(self.g, self.t, check=False)

    def __repr__(self):
        return "QStabElem(t=%s)" % self.t


def dim5_stabilizer(g: BiquatElem, q: AminusVector) -> Optional[QStabElem]:
    """Multiplier t with g Q bar(g) = t Q, or None when FQ is not preserved."""
    if albert_norm(q).is_zero():
        raise IsotropicQ("Q must be anisotropic")
    qe = q.embed()
    t = _multiplier(g * qe * g.bar(), qe)
    if t is None:
        return None
    # Lemma AFQAF2: the multiplier squares to the reduced norm
    if reduced_norm_A(g) != t * t:
        raise InvariantViolated("N(g) != t(g)^2 on a stabilizer element")
    return QStabElem(g, q, t)


def _multiplier(w: BiquatElem, q: BiquatElem) -> Optional[Scalar]:
    """t in F with w = t q (q nonzero), or None.  Compared on the
    F-coordinates, so over A_E a multiplier outside F gives None."""
    t = None
    for a, b in zip(q.field_coords(), w.field_coords()):
        if a.is_zero():
            if not b.is_zero():
                return None
        else:
            cand = b / a
            if t is None:
                t = cand
            elif t != cand:
                return None
    return t


def _scalar(z) -> Scalar:
    """An E-value that lies in F, as a Scalar of F."""
    if not z.is_scalar():
        raise ValueError("E-value is not F-rational")
    return z.scalar_part()


# ---------------------------------------------------------------------------
# dimension 6, general discriminant: the twisted space
# ---------------------------------------------------------------------------

class TwistedSpace:
    """(A_E^-)_(rho,Q): elements u of A_E^- with u^rho = -Q theta(u) Q / |Q|^2.

    Stored as a 6-element F-basis inside A_E plus its Gram matrix, so the
    quadforms machinery applies verbatim.
    """

    def __init__(self, algebra: BiquatAlg, e: EtaleQuad, q: AminusVector):
        if albert_norm(q).is_zero():
            raise IsotropicQ("Q must be anisotropic")
        self.A = algebra
        self.E = e
        self.Q = q
        field = algebra.ring
        self.field = field
        self.AE = algebra.over(e)
        self.QE = q.embed().over(self.AE)
        self.q_norm = albert_norm(q)
        # basis: orthogonal-complement vectors of Q in A^- over F, then h*Q
        perp = complement(algebra.albert_space(), q.coords())
        h = e.gen0()
        basis = [algebra.aminus_of(v).embed().over(self.AE) for v in perp]
        basis.append(self.QE.scale(h))
        self.basis = basis
        gram = []
        for u in basis:
            row = []
            for v in basis:
                pr = albert_pair(u.to_aminus(), v.to_aminus())
                row.append(_scalar(pr))
            gram.append(row)
        self.space = QuadSpace(field, Mat(field, gram))
        # coordinate solver: 32 F-coordinates per A_E element
        cols = [b.field_coords() for b in basis]
        self._solve_mat = Mat(field, cols).T

    def contains(self, u: BiquatElem) -> bool:
        """Membership: u in A_E^- and u^rho = -Q theta(u) Q / |Q|^2."""
        return u.in_minus_space() and u.rho() == self.qtheta_map(u)

    def to_vec(self, u: BiquatElem) -> List[Scalar]:
        sol = self._solve_mat.solve(u.field_coords())
        if sol is None:
            raise ValueError("element is not in the twisted space")
        return sol

    def from_vec(self, v) -> BiquatElem:
        acc = self.AE.zero()
        for c, b in zip(v, self.basis):
            acc = acc + b.scale(c)
        return acc

    def vnorm_of(self, u: BiquatElem) -> Scalar:
        return _scalar(albert_norm(u.to_aminus()))

    def qtheta_map(self, u: BiquatElem) -> BiquatElem:
        """u -> -Q theta(u) Q / |Q|^2; acts on the twisted space as rho."""
        uv = u.to_aminus()
        return -(self.QE * theta(uv).embed() * self.QE).scale(self.q_norm.inverse())

    def multiplier(self, g: BiquatElem) -> Optional[Scalar]:
        """t in F with g Q bar(g)^rho = t Q, or None; g need not be
        invertible (g = 0 gives 0)."""
        return _multiplier(g * self.QE * g.bar().rho(), self.QE)


class RhoQGroupElem:
    """g in A_(E,rho,FQ)^(t^2): g Q bar(g)^rho = t Q with t in F^x and
    N_(A_E)(g) = t^2."""

    __slots__ = ("g", "t", "ts")

    def __init__(self, g: BiquatElem, t: Scalar, ts: TwistedSpace):
        self.g = g
        self.t = t
        self.ts = ts

    def act_on(self, u: BiquatElem) -> BiquatElem:
        """u -> g u bar(g) / t; preserves the twisted space."""
        return (self.g * u * self.g.bar()).scale(self.t.inverse())

    def __repr__(self):
        return "RhoQGroupElem(t=%s)" % self.t


def rhoQ_membership(ts: TwistedSpace, g: BiquatElem) -> Optional[RhoQGroupElem]:
    """Test g Q bar(g)^rho = t Q (t in F^x) and N(g) = t^2."""
    t = ts.multiplier(g)
    if t is None or t.is_zero() or reduced_norm_A(g) != t * t:
        return None
    return RhoQGroupElem(g, t, ts)


def ref6gen_lift(ts: TwistedSpace, g: BiquatElem):
    """Reflection in anisotropic g of the twisted space, as the composite
    of the Qtheta map with the action of g h Q^{-1} (Lemma-level recipe).

    Returns (member, refl) with member = rhoQ_membership(g h Q^-1) and
    refl the composed map on A_E elements.
    """
    ng = ts.vnorm_of(g)
    if ng.is_zero():
        raise IsotropicMirror("mirror is isotropic")
    if not ts.contains(g):
        raise ValueError("mirror is not in the twisted space")
    h = ts.E.gen0()
    q_inv = ts.QE.inverse()
    ghq = g.scale(h) * q_inv
    member = rhoQ_membership(ts, ghq)
    if member is None:
        raise InvariantViolated("g h Q^-1 failed the similitude test")

    def refl(u: BiquatElem) -> BiquatElem:
        return member.act_on(ts.qtheta_map(u))

    return member, refl


def ref6gen_isometry(ts: TwistedSpace, g: BiquatElem) -> Isometry:
    _, refl = ref6gen_lift(ts, g)
    return isometry_of_map(ts.space, refl, ts.to_vec, ts.from_vec)


def qtheta_cover_conj(ts: TwistedSpace, x: CoveredElem) -> CoveredElem:
    """(g, t) -> (t Q bar(g)^-1 Q^-1, t): conjugation by (Q,|Q|^2)theta~."""
    q, qi = ts.QE, ts.QE.inverse()
    return CoveredElem(
        (q * x.g.bar().inverse() * qi).scale(x.t), x.t, check=False)


# ---------------------------------------------------------------------------
# norms of M_2(B)
# ---------------------------------------------------------------------------

def norm_group_M2B(b: QuatAlg) -> Callable[[Scalar], bool]:
    """Membership predicate for N_(M_2(B))(M_2(B)^x) = N_B(B^x).

    By Hasse-Schilling (Reiner, Maximal Orders, Thm 33.15) N_B(B^x) is the
    nonzero scalars positive at the real places where B ramifies: over F_p
    every nonzero scalar; over Q the positive ones for definite B (alpha,
    beta < 0) and every nonzero one otherwise.
    """
    field = b.ring
    definite = field.p is None and b.alpha.value < 0 and b.beta.value < 0

    def pred(x: Scalar) -> bool:
        x = field(x)
        return not x.is_zero() and (not definite or x.value > 0)

    return pred
