"""Etale quadratic algebras, quaternion algebras with the main involution,
split embeddings into 2x2 matrices, and bi-quaternion algebras B (x) C
with the involutions bar = iota_B (x) iota_C and the symplectic tau.

The etale E, the quaternion and the bi-quaternion algebras are
subclasses of the structure-constant core in `towers` (`TableAlgebra`,
`TableElem`), which gives their coercion, linear operations, equality,
table product and the unit coefficient of a product; here they add only
their structure tables, involutions, norms, traces and inverses.  E is
of rank 2 over F on the basis (1, g), g^2 = d, with g = (1, -1) when
E = F x F; its elements keep a conj/N inverse and the (x, y) views of the
pair or of x + y sqrt(d).  The coefficient ring of the others is F_p, Q
or E (restriction of scalars to F), so the same code serves B and B_E;
their norms are unit coefficients of products, and the reduced-norm
oracle is a determinant over a multi-quadratic tower.  The
split-embedding determinant oracle of B in M_2(K) is a test (`tests/`).

A vector of A^- = B_0 (x) 1 + 1 (x) C_0 is the element of A it is: an
`AminusVector` holds one `BiquatElem`, and its sums, scaling, equality
and theta (a sign mask) run on that element's ints.  The Albert form
<u, v> is the unit coefficient of u theta(v), one expression over F_p, Q
and E.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

from .errors import (
    AlgebraMismatch,
    BadParameters,
    NonInvertible,
    NormNotInBaseField,
)
from .exactfield import FieldDesc, Scalar, is_square
from .linalg import Mat, berkowitz_det, kron
from .quadforms import QuadSpace, find_isotropic
from .towers import QuadTower, TableAlgebra, TableElem


class EQElem(TableElem):
    """Element of an etale quadratic algebra: coordinates on (1, g).

    rho negates g.  The views x, y are the pair (x, y) when split, with
    rho swapping them, and x + y*sqrt(d) otherwise.
    """

    __slots__ = ()

    @property
    def x(self) -> Scalar:
        a, b = self.c
        return a + b if self.algebra.is_split else a

    @property
    def y(self) -> Scalar:
        a, b = self.c
        return a - b if self.algebra.is_split else b

    def conj(self) -> "EQElem":
        """The nontrivial automorphism rho."""
        return self._signed((1, -1))

    def norm(self) -> Scalar:
        """(z conj(z))_0 = a^2 - d b^2 (x y when split), on the ints."""
        return self._unit_of(self.conj())

    def trace(self) -> Scalar:
        a = self.c[0]
        return a + a

    def inverse(self) -> "EQElem":
        """conj / N, on the ints."""
        n = self.norm()
        if n.is_zero():
            raise NonInvertible("zero divisor in split algebra" if self.algebra.is_split
                                else "norm zero element")
        return self.conj().scale(n.inverse())

    def coords(self) -> Tuple[Scalar, Scalar]:
        """Coordinates over the F-basis (1, gen0)."""
        return tuple(self.c)

    def __repr__(self):
        if self.algebra.is_split:
            return "(%s, %s)" % (self.x, self.y)
        return "(%s + %s*sqrt(%s))" % (self.x, self.y, self.algebra.d)


class EtaleQuad(TableAlgebra):
    """F + F*sqrt(d), or F x F when d is a square (or by request).

    A table algebra of rank 2 over F on the basis (1, g), g = gen0():
    g^2 = d for F(sqrt d) and g^2 = 1 for F x F, where g = (1, -1).  The
    constructor normalizes adjoin_sqrt(square) to the split algebra, so
    E is split exactly when d = 1.
    """

    Elem = EQElem
    dim = 2
    coefficient_ring = True

    def __init__(self, field: FieldDesc, d=None):
        self.field = self.ring = field
        d = field(1 if d is None else d)
        if d.is_zero():
            raise ValueError("cannot adjoin sqrt(0)")
        self.is_split = is_square(d)
        self.d = field(1) if self.is_split else d

    def table(self):
        one = self.field.one()
        return (((0, one), (1, one)), ((1, one), (0, self.d)))

    def __eq__(self, other):
        return (isinstance(other, EtaleQuad) and self.field == other.field
                and self.d == other.d)

    def __hash__(self):
        return hash((self.field, self.d))

    def __repr__(self):
        if self.is_split:
            return "%r x %r" % (self.field, self.field)
        return "%r(sqrt %s)" % (self.field, self.d)

    def from_xy(self, x, y) -> "EQElem":
        """The pair (x, y) when split, else x + y*sqrt(d)."""
        x, y = self.field(x), self.field(y)
        if self.is_split:
            half = self.field(2).inverse()
            x, y = (x + y) * half, (x - y) * half
        return self.elem([x, y])

    def gen0(self) -> "EQElem":
        """Generator of E_0 (the trace-zero line): sqrt(d), or (1,-1)."""
        return self.elem([0, 1])

    def elements(self):
        if self.field.p is None:
            raise ValueError("cannot enumerate over Q")
        return [self.from_xy(a, b)
                for a in self.field.elements() for b in self.field.elements()]

    def units(self):
        return [z for z in self.elements() if not z.norm().is_zero()]

    def norm_one_elements(self):
        return [z for z in self.elements() if z.norm() == self.field(1)]


# ---------------------------------------------------------------------------
# quaternion algebras
# ---------------------------------------------------------------------------

_BASIS_NAMES = ("1", "i", "j", "k")
_BAR_SIGNS = (1, -1, -1, -1)
# bar on A = B (x) C: the sign of b_s (x) c_t at index 4 s + t
_BAR_SIGNS16 = tuple(s * t for s in _BAR_SIGNS for t in _BAR_SIGNS)
# the symplectic tau = iota_B (x) (Int(i) o iota_C), and s -> 2 s_0 - s
_TAU_SIGNS16 = tuple(s * t for s in _BAR_SIGNS for t in (1, -1, 1, 1))
_ADJ_SIGNS16 = (1,) + (-1,) * 15
# the coefficients of A^- = B_0 (x) 1 + 1 (x) C_0: x at b_s (x) 1 (s = 1, 2,
# 3), then y at 1 (x) c_t (t = 1, 2, 3); theta negates the x part
_AMINUS_INDEX = (4, 8, 12, 1, 2, 3)
_THETA_SIGNS16 = tuple(-1 if i in _AMINUS_INDEX[:3] else 1 for i in range(16))


class QuatElem(TableElem):
    __slots__ = ()
    _SCALARS = (int, Scalar, EQElem)

    def bar(self) -> "QuatElem":
        """Main involution: x -> Tr(x) - x."""
        return self._signed(_BAR_SIGNS)

    def norm(self):
        """N(q) = (q bar(q))_0, on the ints."""
        return self._unit_of(self.bar())

    def trace(self):
        return self.c[0] + self.c[0]

    def inverse(self) -> "QuatElem":
        n = self.norm()
        if n.is_zero():
            raise NonInvertible("quaternion of norm zero")
        return self.bar().scale(n.inverse())

    def is_traceless(self) -> bool:
        v, _ = self._ints()
        return not any(v[:len(v) // 4])

    def traceless_coords(self):
        return self.c[1:]

    def __repr__(self):
        terms = ["%s%s" % ("" if n == "1" else "(", "%s)%s" % (c, n) if n != "1" else c)
                 for c, n in zip(self.c, _BASIS_NAMES) if not c.is_zero()]
        return " + ".join(str(t) for t in terms) if terms else "0"


class QuatAlg(TableAlgebra):
    """Quaternion algebra (alpha, beta / ring): i^2=alpha, j^2=beta, ij=-ji.

    The ring is a FieldDesc or an EtaleQuad; elements hold four ring
    coefficients over the basis (1, i, j, ij).
    """

    Elem = QuatElem
    dim = 4

    def __init__(self, ring, alpha, beta):
        self.ring = ring
        self.alpha = ring(alpha)
        self.beta = ring(beta)
        if self.alpha.is_zero() or self.beta.is_zero():
            raise BadParameters("quaternion symbol entries must be nonzero")

    def table(self):
        a, b = self.alpha, self.beta
        one = self.ring.one()
        return (
            ((0, one), (1, one), (2, one), (3, one)),
            ((1, one), (0, a), (3, one), (2, a)),
            ((2, one), (3, -one), (0, b), (1, -b)),
            ((3, one), (2, -a), (1, b), (0, -(a * b))),
        )

    def __eq__(self, other):
        return (isinstance(other, QuatAlg) and self.ring == other.ring
                and self.alpha == other.alpha and self.beta == other.beta)

    def __hash__(self):
        return hash(("QuatAlg", self.ring, self.alpha, self.beta))

    def __repr__(self):
        return "(%s, %s / %r)" % (self.alpha, self.beta, self.ring)

    def over(self, e: EtaleQuad) -> "QuatAlg":
        """B_E: the same symbol over the etale E (B over F only)."""
        return QuatAlg(e, self.alpha, self.beta)

    def i(self) -> QuatElem:
        return self.elem([0, 1, 0, 0])

    def j(self) -> QuatElem:
        return self.elem([0, 0, 1, 0])

    def k(self) -> QuatElem:
        return self.elem([0, 0, 0, 1])

    def basis(self):
        return [self.one(), self.i(), self.j(), self.k()]

    def elements(self):
        """All elements; base FieldDesc prime fields only (p^4 of them)."""
        field = self.ring
        vals = field.elements()
        return [QuatElem(self, list(c)) for c in itertools.product(vals, repeat=4)]

    def traceless_space(self) -> QuadSpace:
        """B_0 with the reduced norm: Gram diag(-alpha, -beta, alpha*beta)."""
        f = self.ring
        return QuadSpace.diagonal(f, [-self.alpha, -self.beta, self.alpha * self.beta])

    def norm_form(self) -> QuadSpace:
        """The reduced norm on B: diag(1, -alpha, -beta, alpha*beta)."""
        f = self.ring
        return QuadSpace.diagonal(
            f, [f(1), -self.alpha, -self.beta, self.alpha * self.beta])

# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

# height bound of the isotropic-vector search on a norm form over Q
SPLIT_SEARCH_BUDGET = 12


def quat_is_split(b: QuatAlg) -> bool:
    """Whether B is isomorphic to M_2(F); base FieldDesc only.

    The norm form <1, -alpha, -beta, alpha*beta> is isotropic iff split.
    Over F_p this is always True.  Over Q: certified division when the form
    is definite (alpha < 0 and beta < 0), certified split when the search
    finds a vector, and otherwise the search's SearchBudgetExceeded.
    """
    field = b.ring
    if not isinstance(field, FieldDesc):
        raise ValueError("splitness test expects a FieldDesc base")
    if field.p is not None:
        return True
    if b.alpha.value < 0 and b.beta.value < 0:
        return False  # definite norm form: a division algebra
    return find_isotropic(b.norm_form(), budget=SPLIT_SEARCH_BUDGET) is not None


def _split_mat2(ring, coeffs, s, conj, delta) -> Mat:
    """a + b i + c j + d k = z + w j  |->  ((z, delta w), (w^sigma, z^sigma))
    in M_2(ring): z = a + s b and w = c + s d for s the image of i, and
    sigma = conj; the coefficients and delta already lie in ring."""
    a, b, c, d = coeffs
    z = a + s * b
    w = c + s * d
    return Mat(ring, [[z, delta * w], [conj(w), conj(z)]])


def quat_to_mat2_tower(x: QuatElem, tower: QuadTower, root_index: int,
                       delta, lift) -> Mat:
    """Embed a quaternion into M_2(tower) using tower.root(root_index).

    `lift` carries base-ring coefficients into the tower; delta is the
    j^2 symbol entry (lifted).  Requires root^2 = lifted alpha.
    """
    return _split_mat2(tower, [lift(v) for v in x.c], tower.root(root_index),
                       lambda v: tower.conj(v, root_index), delta)


# ---------------------------------------------------------------------------
# bi-quaternion algebras
# ---------------------------------------------------------------------------

class BiquatElem(TableElem):
    __slots__ = ()
    _SCALARS = (int, Scalar, EQElem)

    # the shared product, bound here so that per-class tracing (perfbench)
    # counts bi-quaternion products by name
    __mul__ = TableElem.__mul__

    def bar(self) -> "BiquatElem":
        """The involution iota_B (x) iota_C."""
        return self._signed(_BAR_SIGNS16)

    def tau(self) -> "BiquatElem":
        """The symplectic involution iota_B (x) (Int(i) o iota_C)."""
        return self._signed(_TAU_SIGNS16)

    def inverse(self) -> "BiquatElem":
        """tau(x) (2 s_0 - s) / Nrd(x) for s = x tau(x), which satisfies
        s (2 s_0 - s) = Nrd(x) (see reduced_norm_A); NonInvertible exactly
        when Nrd(x) is not a unit of the ring.  The unit is its own
        inverse."""
        v, d = self._ints()
        if v[0] == d and not any(v[1:]):
            return self
        t = self.tau()
        s = self * t
        adj = s._signed(_ADJ_SIGNS16)
        n = s._unit_of(adj)
        if n.is_zero() or isinstance(n, EQElem) and n.norm().is_zero():
            raise NonInvertible("BiquatElem is a zero divisor")
        return (t * adj).scale(n.inverse())

    def in_minus_space(self) -> bool:
        v, _ = self._ints()
        r = len(v) // 16
        return not any(v[i] for i in range(len(v)) if _BAR_SIGNS16[i // r] == 1)

    def to_aminus(self) -> "AminusVector":
        """This element as an A^- vector; ValueError outside A^-."""
        if not self.in_minus_space():
            raise ValueError("element is not in A^-")
        return AminusVector._of(self)

    def __repr__(self):
        names = []
        for s in range(4):
            for t in range(4):
                bs, ct = _BASIS_NAMES[s], _BASIS_NAMES[t]
                names.append("%s(x)%s" % (bs, ct))
        terms = ["(%s)%s" % (c, n) for c, n in zip(self.c, names) if not c.is_zero()]
        return " + ".join(terms) if terms else "0"


class BiquatAlg(TableAlgebra):
    """A = B (x) C with the orthogonal involution iota_B (x) iota_C.

    Elements hold 16 ring coefficients indexed by (s, t) -> 4*s + t over
    the basis b_s (x) c_t.
    """

    Elem = BiquatElem
    dim = 16
    # spin_eight's shear vectors, built on first use (`_shear_candidates`)
    _shears = None

    def __init__(self, b: QuatAlg, c: QuatAlg):
        if b.ring != c.ring:
            raise AlgebraMismatch("B and C over different rings")
        self.B = b
        self.C = c
        self.ring = b.ring

    def table(self):
        """The tab16 fusion: (b_s c_t)(b_u c_v) = fb fc b_wb c_wc."""
        tb, tc = self.B.table(), self.C.table()
        return [[(4 * wb + wc, fb * fc) for wb, fb in tb[s] for wc, fc in tc[t]]
                for s in range(4) for t in range(4)]

    def __eq__(self, other):
        return isinstance(other, BiquatAlg) and self.B == other.B and self.C == other.C

    def __hash__(self):
        return hash(("BiquatAlg", self.B, self.C))

    def __repr__(self):
        return "%r (x) %r" % (self.B, self.C)

    def over(self, e: EtaleQuad) -> "BiquatAlg":
        """A_E = B_E (x) C_E."""
        return BiquatAlg(self.B.over(e), self.C.over(e))

    def basis_elem(self, s: int, t: int) -> BiquatElem:
        coords = [self.ring.zero()] * 16
        coords[4 * s + t] = self.ring.one()
        return BiquatElem(self, coords)

    def aminus(self, x_coords, y_coords) -> "AminusVector":
        return AminusVector(self, x_coords, y_coords)

    def aminus_of(self, coords) -> "AminusVector":
        """The A^- vector with Albert coordinates coords[:6], the inverse of
        AminusVector.coords."""
        return self.aminus(coords[:3], coords[3:6])

    def albert_space(self) -> QuadSpace:
        """The Albert form on A^-: the B_0 norm form and the negated C_0 one."""
        b, c = self.B, self.C
        return QuadSpace.diagonal(self.ring, [-b.alpha, -b.beta, b.alpha * b.beta,
                                              c.alpha, c.beta, -c.alpha * c.beta])


class AminusVector:
    """Element of A^- = (B_0 (x) 1) + (1 (x) C_0), the Albert form space:
    the element of A it is (`embed`), with x its b_s (x) 1 and y its
    1 (x) c_t coefficients (s, t = 1, 2, 3)."""

    __slots__ = ("_e",)

    def __init__(self, algebra: BiquatAlg, x, y):
        c = [algebra.ring.zero()] * 16
        for i, v in zip(_AMINUS_INDEX, [*x, *y]):
            c[i] = algebra.ring(v)
        self._e = BiquatElem(algebra, c)

    @classmethod
    def _of(cls, e: BiquatElem) -> "AminusVector":
        """The vector that is e, an element of A^-."""
        u = cls.__new__(cls)
        u._e = e
        return u

    @property
    def algebra(self) -> BiquatAlg:
        return self._e.algebra

    @property
    def x(self):
        return self.coords()[:3]

    @property
    def y(self):
        return self.coords()[3:]

    def embed(self) -> BiquatElem:
        return self._e

    def coords(self):
        c = self._e.c
        return [c[i] for i in _AMINUS_INDEX]

    def _same_algebra(self, other: "AminusVector") -> bool:
        return other.algebra is self.algebra or other.algebra == self.algebra

    def _check(self, other: "AminusVector") -> None:
        if not self._same_algebra(other):
            raise AlgebraMismatch("A^- vector of %r used with %r"
                                  % (other.algebra, self.algebra))

    def __add__(self, other: "AminusVector") -> "AminusVector":
        return AminusVector._of(self._e + other._e)

    def __sub__(self, other: "AminusVector") -> "AminusVector":
        return AminusVector._of(self._e - other._e)

    def __neg__(self):
        return AminusVector._of(-self._e)

    def scale(self, s) -> "AminusVector":
        return AminusVector._of(self._e.scale(s))

    def __eq__(self, other):
        return (isinstance(other, AminusVector) and self._same_algebra(other)
                and self._e._ints() == other._e._ints())

    def __hash__(self):
        return hash(self._e)

    def __repr__(self):
        return "AminusVector(x=%s, y=%s)" % (self.x, self.y)


def theta(u: AminusVector) -> AminusVector:
    """The involution of A^- negating the B_0 part; u * theta(u) = |u|^2."""
    return AminusVector._of(u.embed()._signed(_THETA_SIGNS16))


def albert_norm(u: AminusVector):
    """|x (x) 1 + 1 (x) y|^2 = N_B(x) - N_C(y)."""
    return albert_pair(u, u)


def albert_pair(u: AminusVector, v: AminusVector):
    """<u, v>, the unit coefficient of u theta(v) (its own sign mask, not
    `theta`): sum of d_i u_i v_i with d = (-alpha, -beta, alpha beta) on
    B_0 and (alpha', beta', -alpha' beta') on C_0."""
    u._check(v)
    return u.embed()._unit_of(v.embed()._signed(_THETA_SIGNS16))


# ---------------------------------------------------------------------------
# reduced norms
# ---------------------------------------------------------------------------

def reduced_norm_M2B(m) -> object:
    """Reduced norm of ((a, b), (c, d)) over a quaternion algebra:
    N(a)N(d) + N(b)N(c) - Tr(bar(a) b bar(d) c)."""
    (a, b), (c, d) = m
    t = (a.bar() * b * d.bar())._unit_of(c)
    return a.norm() * d.norm() + b.norm() * c.norm() - t - t


def reduced_norm_A(x: BiquatElem):
    """Degree-4 reduced norm of A = B (x) C, through the symplectic tau.

    s = x tau(x) is tau-symmetric, and so a root of its Pfaffian
    characteristic polynomial X^2 - 2 s_0 X + Nrd(x) (Knus-Merkurjev-Rost-
    Tignol, The Book of Involutions, 2.B).  So Nrd(x) = (s (2 s_0 - s))_0,
    a value in the coefficient ring (E over E).
    """
    s = x * x.tau()
    return s._unit_of(s._signed(_ADJ_SIGNS16))


def biquat_to_mat4(x: BiquatElem, tower: Optional[QuadTower] = None) -> Tuple[Mat, QuadTower]:
    """Split embedding A -> M_4(T), T = F(sqrt(alpha_B), sqrt(alpha_C)).

    Kronecker product of the 2x2 embeddings of B and C; base FieldDesc
    only.  det of the image is the reduced norm (degree 4).
    """
    algebra = x.algebra
    field = algebra.ring
    if tower is None:
        tower = QuadTower(field, [algebra.B.alpha, algebra.C.alpha])
    lift = tower.from_scalar
    mats_b = [quat_to_mat2_tower(e, tower, 0, lift(algebra.B.beta), lift)
              for e in algebra.B.basis()]
    mats_c = [quat_to_mat2_tower(e, tower, 1, lift(algebra.C.beta), lift)
              for e in algebra.C.basis()]
    acc = Mat.zero(tower, 4)
    for s in range(4):
        for t in range(4):
            v = x.c[4 * s + t]
            if v.is_zero():
                continue
            acc = acc + kron(tower, mats_b[s], mats_c[t]) * lift(v)
    return acc, tower


def reduced_norm_A_oracle(x: BiquatElem) -> Scalar:
    """Independent reduced norm: 4x4 determinant after full splitting."""
    m, _tower = biquat_to_mat4(x)
    d = berkowitz_det(m)
    if not d.is_scalar():
        raise NormNotInBaseField("reduced norm oracle left the base field")
    return d.scalar_part()
