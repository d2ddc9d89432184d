"""Etale quadratic algebras, quaternion algebras with the main involution,
split embeddings into 2x2 matrices, and bi-quaternion algebras B (x) C
with the involution bar = iota_B (x) iota_C.

Quaternion and bi-quaternion algebras are subclasses of the structure-
constant core in `towers` (`TableAlgebra`, `TableElem`), which gives their
coercion, linear operations, equality, table product and regular-
representation inverse; here they add only their structure tables, the
involutions, norms and traces, and the A^- maps.  The arithmetic is
generic over the coefficient ring (F_p, Q, an etale quadratic algebra, or
a multi-quadratic tower), so the same code serves B, B_E, and the
split-embedding norm oracles.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

from .errors import (
    AlgebraMismatch,
    NonInvertible,
    NotASplittingField,
    SearchBudgetExceeded,
)
from .exactfield import FieldDesc, Scalar, is_square, sqrt_exact
from .linalg import Mat, berkowitz_det, independent_subset, kron
from .quadforms import QuadSpace, find_isotropic
from .towers import QuadTower, TableAlgebra, TableElem


class EtaleQuad:
    """F + F*sqrt(d), or F x F when d is a square (or by request).

    The constructor normalizes adjoin_sqrt(square) to the split algebra.
    """

    def __init__(self, field: FieldDesc, d=None):
        self.field = field
        if d is not None:
            d = field(d)
            if d.is_zero():
                raise ValueError("cannot adjoin sqrt(0)")
        if d is None or is_square(d):
            self.kind = "split"
            self.d = field(1)
            self._split_root = None if d is None else sqrt_exact(d)
        else:
            self.kind = "adjoin"
            self.d = d

    @property
    def is_split(self) -> bool:
        return self.kind == "split"

    def __eq__(self, other):
        return (isinstance(other, EtaleQuad) and self.field == other.field
                and self.kind == other.kind and self.d == other.d)

    def __hash__(self):
        return hash((self.field, self.kind, self.d))

    def __repr__(self):
        if self.is_split:
            return "%r x %r" % (self.field, self.field)
        return "%r(sqrt %s)" % (self.field, self.d)

    def zero(self) -> "EQElem":
        return EQElem(self, self.field.zero(), self.field.zero())

    def one(self) -> "EQElem":
        if self.is_split:
            return EQElem(self, self.field.one(), self.field.one())
        return EQElem(self, self.field.one(), self.field.zero())

    def from_scalar(self, s) -> "EQElem":
        s = self.field(s)
        if self.is_split:
            return EQElem(self, s, s)
        return EQElem(self, s, self.field.zero())

    def __call__(self, x) -> "EQElem":
        if isinstance(x, EQElem):
            if x.algebra is not self and x.algebra != self:
                raise AlgebraMismatch("element of %r used in %r" % (x.algebra, self))
            return x
        return self.from_scalar(x)

    def gen0(self) -> "EQElem":
        """Generator of E_0 (the trace-zero line): sqrt(d), or (1,-1)."""
        if self.is_split:
            return EQElem(self, self.field.one(), -self.field.one())
        return EQElem(self, self.field.zero(), self.field.one())

    def elements(self):
        if self.field.p is None:
            raise ValueError("cannot enumerate over Q")
        return [EQElem(self, a, b)
                for a in self.field.elements() for b in self.field.elements()]

    def solve_restricted(self, m: Mat, rhs):
        """Solve m x = rhs over E as a system over F; None if inconsistent.

        x + y sqrt(d) acts on (x, y) coordinates as ((x, d y), (y, x)), and
        the split (x, y) as diag(x, y).
        """
        zero = self.field.zero()
        rows = []
        for row in m.rows:
            top, bottom = [], []
            for z in row:
                if self.is_split:
                    top += (z.x, zero)
                    bottom += (zero, z.y)
                else:
                    top += (z.x, self.d * z.y)
                    bottom += (z.y, z.x)
            rows += (top, bottom)
        sol = Mat(self.field, rows).solve([v for z in rhs for v in (z.x, z.y)])
        if sol is None:
            return None
        return [EQElem(self, sol[k], sol[k + 1]) for k in range(0, len(sol), 2)]

    def units(self):
        return [z for z in self.elements() if not z.norm().is_zero()]

    def norm_one_elements(self):
        return [z for z in self.elements() if z.norm() == self.field(1)]


class EQElem:
    """Element of an etale quadratic algebra.

    Split: the pair (x, y) with rho swapping coordinates.
    Field case: x + y*sqrt(d) with rho negating y.
    """

    __slots__ = ("algebra", "x", "y")

    def __init__(self, algebra: EtaleQuad, x: Scalar, y: Scalar):
        self.algebra = algebra
        self.x = x
        self.y = y

    def _coerce(self, other):
        if isinstance(other, EQElem):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise AlgebraMismatch("mixed etale algebras")
            return other
        if isinstance(other, (int, Scalar)):
            return self.algebra.from_scalar(other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not EQElem or other.algebra is not self.algebra:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return EQElem(self.algebra, self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not EQElem or other.algebra is not self.algebra:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return EQElem(self.algebra, self.x - other.x, self.y - other.y)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return EQElem(self.algebra, -self.x, -self.y)

    def __mul__(self, other):
        if type(other) is not EQElem or other.algebra is not self.algebra:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.algebra.is_split:
            return EQElem(self.algebra, self.x * other.x, self.y * other.y)
        return EQElem(self.algebra,
                      self.x * other.x + self.algebra.d * self.y * other.y,
                      self.x * other.y + self.y * other.x)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def conj(self) -> "EQElem":
        """The nontrivial automorphism rho."""
        if self.algebra.is_split:
            return EQElem(self.algebra, self.y, self.x)
        return EQElem(self.algebra, self.x, -self.y)

    def norm(self) -> Scalar:
        if self.algebra.is_split:
            return self.x * self.y
        return self.x * self.x - self.algebra.d * self.y * self.y

    def trace(self) -> Scalar:
        if self.algebra.is_split:
            return self.x + self.y
        return self.x + self.x

    def inverse(self) -> "EQElem":
        n = self.norm()
        if self.algebra.is_split:
            if self.x.is_zero() or self.y.is_zero():
                raise NonInvertible("zero divisor in split algebra")
            return EQElem(self.algebra, self.x.inverse(), self.y.inverse())
        if n.is_zero():
            raise NonInvertible("norm zero element")
        c = self.conj()
        ninv = n.inverse()
        return EQElem(self.algebra, c.x * ninv, c.y * ninv)

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()

    def is_scalar(self) -> bool:
        if self.algebra.is_split:
            return self.x == self.y
        return self.y.is_zero()

    def scalar_part(self) -> Scalar:
        """The F-coordinate when is_scalar(); split uses the diagonal."""
        return self.x

    def coords(self) -> Tuple[Scalar, Scalar]:
        """Coordinates over the F-basis (1, gen0)."""
        if self.algebra.is_split:
            two_inv = self.algebra.field(2).inverse()
            return ((self.x + self.y) * two_inv, (self.x - self.y) * two_inv)
        return (self.x, self.y)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.algebra, self.x, self.y))

    def __repr__(self):
        if self.algebra.is_split:
            return "(%s, %s)" % (self.x, self.y)
        return "(%s + %s*sqrt(%s))" % (self.x, self.y, self.algebra.d)


# ---------------------------------------------------------------------------
# quaternion algebras
# ---------------------------------------------------------------------------

_BASIS_NAMES = ("1", "i", "j", "k")
_BAR_SIGNS = (1, -1, -1, -1)


class QuatElem(TableElem):
    __slots__ = ()
    _SCALARS = (int, Scalar, EQElem)

    def bar(self) -> "QuatElem":
        """Main involution: x -> Tr(x) - x."""
        return QuatElem(self.algebra, [self.c[0], -self.c[1], -self.c[2], -self.c[3]])

    def norm(self):
        a = self.algebra
        return (self.c[0] * self.c[0] - a.alpha * self.c[1] * self.c[1]
                - a.beta * self.c[2] * self.c[2]
                + a.alpha * a.beta * self.c[3] * self.c[3])

    def trace(self):
        return self.c[0] + self.c[0]

    def inverse(self) -> "QuatElem":
        n = self.norm()
        if n.is_zero():
            raise NonInvertible("quaternion of norm zero")
        return self.bar().scale(n.inverse())

    def is_traceless(self) -> bool:
        return self.c[0].is_zero()

    def traceless_coords(self):
        return self.c[1:]

    def __repr__(self):
        terms = ["%s%s" % ("" if n == "1" else "(", "%s)%s" % (c, n) if n != "1" else c)
                 for c, n in zip(self.c, _BASIS_NAMES) if not c.is_zero()]
        return " + ".join(str(t) for t in terms) if terms else "0"


class QuatAlg(TableAlgebra):
    """Quaternion algebra (alpha, beta / ring): i^2=alpha, j^2=beta, ij=-ji.

    The ring may be a FieldDesc, an EtaleQuad, or a QuadTower; elements
    hold four ring coefficients over the basis (1, i, j, ij).
    """

    Elem = QuatElem
    dim = 4

    def __init__(self, ring, alpha, beta):
        self.ring = ring
        self.alpha = ring(alpha)
        self.beta = ring(beta)
        if self.alpha.is_zero() or self.beta.is_zero():
            raise ValueError("quaternion symbol entries must be nonzero")

    def _build_table(self):
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

def quat_is_split(b: QuatAlg, budget: int = 12) -> bool:
    """Whether B is isomorphic to M_2(F); base FieldDesc only.

    The norm form <1, -alpha, -beta, alpha*beta> is isotropic iff split.
    Over F_p this is always True.  Over Q: certified split when a vector
    is found, certified division when the form is definite (alpha < 0 and
    beta < 0), otherwise SearchBudgetExceeded.
    """
    field = b.ring
    if not isinstance(field, FieldDesc):
        raise ValueError("splitness test expects a FieldDesc base")
    if field.p is not None:
        return True
    if b.alpha.value < 0 and b.beta.value < 0:
        return False  # definite norm form: a division algebra
    v = find_isotropic(b.norm_form(), budget=budget, warn_inconclusive=False)
    if v is not None:
        return True
    raise SearchBudgetExceeded("isotropy of the norm form undecided")


def quat_zero_divisor(b: QuatAlg, budget: int = 12) -> QuatElem:
    """A nonzero element of norm 0 in a split algebra."""
    v = find_isotropic(b.norm_form(), budget=budget, warn_inconclusive=False)
    if v is None:
        raise NotASplittingField("algebra has no zero divisors")
    return b.elem(v)


class SplitIso:
    """Explicit isomorphism B -> M_2(F) for split B (left ideal action)."""

    def __init__(self, b: QuatAlg, budget: int = 12):
        self.algebra = b
        field = b.ring
        u = quat_zero_divisor(b, budget=budget)
        # 2-dimensional left ideal B*u, as a column space over F
        ideal = independent_subset(field, [(x * u).c for x in b.basis()], 2)
        self.ideal_basis = [QuatElem(b, c) for c in ideal]
        self._solve_mat = Mat(field, [[ideal[j][i] for j in range(2)]
                                      for i in range(4)])

    def matrix(self, x: QuatElem) -> Mat:
        """Image of x: the action of left multiplication on the ideal."""
        field = self.algebra.ring
        cols = []
        for w in self.ideal_basis:
            img = x * w
            sol = self._solve_mat.solve(img.c)
            if sol is None:
                raise NotASplittingField("ideal is not invariant (internal error)")
            cols.append(sol)
        return Mat(field, [[cols[j][i] for j in range(2)] for i in range(2)])


class SplitEmbedding:
    """B = (eta, delta / F) embedded in M_2(K) for K = F(sqrt(eta)).

    z + w j  |->  ((z, delta w), (w^sigma, z^sigma)), with z, w in K.
    """

    def __init__(self, b: QuatAlg, k: EtaleQuad, delta):
        field = b.ring
        if not isinstance(field, FieldDesc):
            raise NotASplittingField("split embedding expects a FieldDesc base")
        delta = field(delta)
        if k.field != field:
            raise NotASplittingField("K is over the wrong field")
        # K must be F(sqrt(alpha)) and delta the other symbol entry
        if k.is_split:
            if not is_square(b.alpha):
                raise NotASplittingField("split K but alpha is not a square")
        elif k.d != b.alpha:
            raise NotASplittingField("K does not match sqrt(alpha)")
        if delta != b.beta:
            raise NotASplittingField("delta does not match the symbol")
        self.algebra = b
        self.K = k
        self.delta = delta
        if k.is_split:
            r = sqrt_exact(b.alpha)
            self._s = EQElem(k, r, -r)  # image of i in F x F
        else:
            self._s = k.gen0()

    def matrix(self, x: QuatElem) -> Mat:
        k = self.K
        a, bb, c, d = [k.from_scalar(v) for v in x.c]
        z = a + self._s * bb
        w = c + self._s * d
        return Mat(k, [[z, k.from_scalar(self.delta) * w],
                       [w.conj(), z.conj()]])

    def sigma(self, m: Mat) -> Mat:
        """Entrywise Galois action Id_B (x) sigma on M_2(K)."""
        return m.map(lambda e: e.conj())

    def norm_det(self, x: QuatElem) -> Scalar:
        d = berkowitz_det(self.matrix(x))
        if not d.is_scalar():
            raise NotASplittingField("determinant not rational (internal error)")
        return d.coords()[0] if self.K.is_split else d.x


def quat_to_mat2_tower(x: QuatElem, tower: QuadTower, root_index: int,
                       delta, lift) -> Mat:
    """Embed a quaternion into M_2(tower) using tower.root(root_index).

    `lift` carries base-ring coefficients into the tower; delta is the
    j^2 symbol entry (lifted).  Requires root^2 = lifted alpha.
    """
    s = tower.root(root_index)
    a, b, c, d = [lift(v) for v in x.c]
    z = a + s * b
    w = c + s * d
    zc = tower.conj(z, root_index)
    wc = tower.conj(w, root_index)
    return Mat(tower, [[z, delta * w], [wc, zc]])


# ---------------------------------------------------------------------------
# bi-quaternion algebras
# ---------------------------------------------------------------------------

class BiquatElem(TableElem):
    __slots__ = ()
    _SCALARS = (int, Scalar, EQElem)

    # the shared product and inverse, bound here so that per-class tracing
    # (perfbench) counts bi-quaternion products and inverses by name
    __mul__ = TableElem.__mul__
    inverse = TableElem.inverse

    def _coerce(self, other):
        if isinstance(other, AminusVector):
            return other.embed()
        return TableElem._coerce(self, other)

    def __rmul__(self, other):
        if isinstance(other, AminusVector):
            return other.embed() * self
        return TableElem.__rmul__(self, other)

    def bar(self) -> "BiquatElem":
        """The involution iota_B (x) iota_C."""
        out = []
        for s in range(4):
            for t in range(4):
                v = self.c[4 * s + t]
                if _BAR_SIGNS[s] * _BAR_SIGNS[t] == -1:
                    v = -v
                out.append(v)
        return BiquatElem(self.algebra, out)

    def plus_part(self) -> "BiquatElem":
        half = self.algebra.ring(2).inverse()
        return (self + self.bar()).scale(half)

    def minus_part(self) -> "BiquatElem":
        half = self.algebra.ring(2).inverse()
        return (self - self.bar()).scale(half)

    def in_minus_space(self) -> bool:
        return all(self.c[4 * s + t].is_zero()
                   for s in range(4) for t in range(4)
                   if _BAR_SIGNS[s] * _BAR_SIGNS[t] == 1)

    def to_aminus(self) -> "AminusVector":
        if not self.in_minus_space():
            raise ValueError("element is not in A^-")
        x = [self.c[4 * s + 0] for s in (1, 2, 3)]
        y = [self.c[0 + t] for t in (1, 2, 3)]
        return AminusVector(self.algebra, x, y)

    def reduced_norm(self):
        return reduced_norm_A(self)

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

    def __init__(self, b: QuatAlg, c: QuatAlg):
        if b.ring != c.ring:
            raise AlgebraMismatch("B and C over different rings")
        self.B = b
        self.C = c
        self.ring = b.ring

    def _build_table(self):
        """The tab16 fusion: (b_s c_t)(b_u c_v) = fb fc b_wb c_wc."""
        tb, tc = self.B._build_table(), self.C._build_table()
        return [[(4 * wb + wc, fb * fc) for wb, fb in tb[s] for wc, fc in tc[t]]
                for s in range(4) for t in range(4)]

    def __eq__(self, other):
        return isinstance(other, BiquatAlg) and self.B == other.B and self.C == other.C

    def __hash__(self):
        return hash(("BiquatAlg", self.B, self.C))

    def __repr__(self):
        return "%r (x) %r" % (self.B, self.C)

    def tensor(self, b: QuatElem, c: QuatElem) -> BiquatElem:
        coords = [self.ring.zero()] * 16
        for s in range(4):
            for t in range(4):
                coords[4 * s + t] = b.c[s] * c.c[t]
        return BiquatElem(self, coords)

    def basis_elem(self, s: int, t: int) -> BiquatElem:
        coords = [self.ring.zero()] * 16
        coords[4 * s + t] = self.ring.one()
        return BiquatElem(self, coords)

    def aminus(self, x_coords, y_coords) -> "AminusVector":
        return AminusVector(self, [self.ring(v) for v in x_coords],
                            [self.ring(v) for v in y_coords])

    def albert_space(self) -> QuadSpace:
        """The Albert form on A^-: diag of B_0-part and negated C_0-part."""
        b, c = self.B, self.C
        return QuadSpace.diagonal(self.ring, [
            -b.alpha, -b.beta, b.alpha * b.beta,
            c.alpha, c.beta, -c.alpha * c.beta,
        ])


class AminusVector:
    """Element of A^- = (B_0 (x) 1) + (1 (x) C_0), the Albert form space."""

    __slots__ = ("algebra", "x", "y")

    def __init__(self, algebra: BiquatAlg, x, y):
        self.algebra = algebra
        self.x = list(x)
        self.y = list(y)

    def embed(self) -> BiquatElem:
        coords = [self.algebra.ring.zero()] * 16
        for idx, v in zip((4, 8, 12), self.x):
            coords[idx] = v
        for idx, v in zip((1, 2, 3), self.y):
            coords[idx] = v
        return BiquatElem(self.algebra, coords)

    def coords(self):
        return self.x + self.y

    def theta(self) -> "AminusVector":
        return theta(self)

    def albert_norm(self):
        return albert_norm(self)

    def __add__(self, other: "AminusVector") -> "AminusVector":
        return AminusVector(self.algebra, [a + b for a, b in zip(self.x, other.x)],
                            [a + b for a, b in zip(self.y, other.y)])

    def __sub__(self, other: "AminusVector") -> "AminusVector":
        return AminusVector(self.algebra, [a - b for a, b in zip(self.x, other.x)],
                            [a - b for a, b in zip(self.y, other.y)])

    def __neg__(self):
        return AminusVector(self.algebra, [-a for a in self.x], [-a for a in self.y])

    def scale(self, s) -> "AminusVector":
        s = self.algebra.ring(s)
        return AminusVector(self.algebra, [a * s for a in self.x],
                            [a * s for a in self.y])

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.coords())

    def __eq__(self, other):
        return (isinstance(other, AminusVector) and self.algebra == other.algebra
                and self.x == other.x and self.y == other.y)

    def __hash__(self):
        return hash((self.algebra, tuple(self.x), tuple(self.y)))

    def __repr__(self):
        return "AminusVector(x=%s, y=%s)" % (self.x, self.y)


def theta(u: AminusVector) -> AminusVector:
    """The involution of A^- negating the B_0 part; u * theta(u) = |u|^2."""
    return AminusVector(u.algebra, [-v for v in u.x], list(u.y))


def albert_norm(u: AminusVector):
    """|x (x) 1 + 1 (x) y|^2 = N_B(x) - N_C(y)."""
    a = u.algebra
    nb = (-a.B.alpha * u.x[0] * u.x[0] - a.B.beta * u.x[1] * u.x[1]
          + a.B.alpha * a.B.beta * u.x[2] * u.x[2])
    nc = (-a.C.alpha * u.y[0] * u.y[0] - a.C.beta * u.y[1] * u.y[1]
          + a.C.alpha * a.C.beta * u.y[2] * u.y[2])
    return nb - nc


def albert_pair(u: AminusVector, v: AminusVector):
    """2<u,v> = |u+v|^2 - |u|^2 - |v|^2, halved."""
    two_inv = u.algebra.ring(2).inverse()
    return (albert_norm(u + v) - albert_norm(u) - albert_norm(v)) * two_inv


# ---------------------------------------------------------------------------
# reduced norms
# ---------------------------------------------------------------------------

def reduced_norm_M2B(m) -> object:
    """Reduced norm of ((a, b), (c, d)) over a quaternion algebra:
    N(a)N(d) + N(b)N(c) - Tr(bar(a) b bar(d) c)."""
    (a, b), (c, d) = m
    prod = a.bar() * b * d.bar() * c
    return a.norm() * d.norm() + b.norm() * c.norm() - prod.trace()


def reduced_norm_A(x: BiquatElem):
    """Degree-4 reduced norm of A = B (x) C, as an explicit polynomial.

    Writing x = al + de i + be j + ga ij with B-coefficients over the
    generators i, j of C (i^2 = eta, j^2 = eps), the norm expands into
    quaternion norms and traces; every term is pinned against the
    split-embedding determinant oracle in the test suite.
    """
    algebra = x.algebra
    b_alg = algebra.B
    eta = algebra.C.alpha
    eps = algebra.C.beta
    al = QuatElem(b_alg, [x.c[4 * s + 0] for s in range(4)])
    de = QuatElem(b_alg, [x.c[4 * s + 1] for s in range(4)])
    be = QuatElem(b_alg, [x.c[4 * s + 2] for s in range(4)])
    ga = QuatElem(b_alg, [x.c[4 * s + 3] for s in range(4)])

    def nsq(q):
        n = q.norm()
        return n * n

    def tr_sq(p, q):
        t = p.bar() * q
        return (t * t).trace()

    two = algebra.ring(2)
    return (
        nsq(al) + eta * eta * nsq(de) + eps * eps * nsq(be)
        + eta * eta * eps * eps * nsq(ga)
        - eta * tr_sq(al, de) - eps * tr_sq(al, be)
        + eta * eps * tr_sq(al, ga) + eta * eps * tr_sq(de, be)
        - eta * eta * eps * tr_sq(de, ga) - eps * eps * eta * tr_sq(be, ga)
        - two * eta * eps * (al.bar() * be * de.bar() * ga).trace()
        + two * eta * eps * (al.bar() * ga * de.bar() * be).trace()
    )


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
        raise ValueError("reduced norm oracle left the base field")
    return d.scalar_part()
