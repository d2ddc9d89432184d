"""Structure-constant algebras, and the multi-quadratic etale algebras
F(sqrt(d1), ..., sqrt(dk)) over F_p or Q built on them.

`TableAlgebra` and `TableElem` are the one algebra core shared by the
quaternion and bi-quaternion algebras of `algebras` and the towers here.
An algebra is free of rank `dim` over its coefficient ring, and its basis
products come from a structure table: tab[i][j] = (target, coeff or None)
means e_i e_j = coeff * e_target, with None for a coefficient of one.
Elements hold their `dim` coefficients in the list `c`.  The element base
gives coercion, the linear operations, equality and hash, the table
product, and an inverse by solving the regular representation; the
subclasses keep only their own involutions, norms and conjugations.

Over F_p or Q the table product and `mult_matrix` work on ints: the
structure constants are kept once per algebra as ints over one
denominator, the operands are unwrapped to residues or to numerators over
their lcm denominator, and each output coordinate is wrapped once, with
one `% p` or one Fraction.  Over the non-field rings (EtaleQuad,
QuadTower) the product loops over the ring's own arithmetic.

Tower elements carry 2^k coordinates indexed by subsets of the adjoined
roots (bitmask order).  These towers back the split embeddings of
quaternion algebras and the exterior-square constructions; they are
commutative rings, possibly with zero divisors when an adjoined class
degenerates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import AlgebraMismatch, FieldMismatch, NonInvertible
from .exactfield import FieldDesc, Scalar, _ints_over_lcm, is_square
from .linalg import Mat


def _bare(field: FieldDesc, scalars):
    """Scalars over F_p or Q as ints over one denominator: (ints, d)."""
    values = [s.value for s in scalars]
    if field.p is None:
        return _ints_over_lcm(values)
    return values, 1


def _wrap(field: FieldDesc, ints, d):
    """Scalars ints / d, reduced once each."""
    if field.p is None:
        return [Scalar(field, Fraction(v, d)) for v in ints]
    return [Scalar(field, v % field.p) for v in ints]


class TableElem:
    """Element base: coefficients `c` over `algebra.ring`.

    `_SCALARS` lists the types that act as central ring scalars.
    """

    __slots__ = ("algebra", "c")
    _SCALARS = (int, Scalar)

    def __init__(self, algebra: "TableAlgebra", coeffs):
        self.algebra = algebra
        self.c = list(coeffs)

    def _coerce(self, other):
        if isinstance(other, type(self)):
            # identity first: the structural __eq__ is the slow path
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise self.algebra.Mismatch("element of %r used with %r"
                                            % (other.algebra, self.algebra))
            return other
        if isinstance(other, self._SCALARS):
            return self.algebra.from_scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(self.algebra, [a + b for a, b in zip(self.c, other.c)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(self.algebra, [a - b for a, b in zip(self.c, other.c)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return type(self)(self.algebra, [-a for a in self.c])

    def scale(self, s):
        s = self.algebra.ring(s)
        return type(self)(self.algebra, [a * s for a in self.c])

    def __mul__(self, other):
        if isinstance(other, self._SCALARS):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.algebra.ring
        if isinstance(ring, FieldDesc):
            tab, den = self.algebra._int_table()
            xs, dx = _bare(ring, self.c)
            ys, dy = _bare(ring, other.c)
            out = [0] * len(xs)
            right = [(j, b) for j, b in enumerate(ys) if b]
            for a, row in zip(xs, tab):
                if a:
                    for j, b in right:
                        target, coeff = row[j]
                        out[target] += a * b * coeff
            return type(self)(self.algebra, _wrap(ring, out, dx * dy * den))
        tab = self.algebra.table()
        out = [ring.zero()] * len(self.c)
        right = [(j, b) for j, b in enumerate(other.c) if not b.is_zero()]
        for i, a in enumerate(self.c):
            if a.is_zero():
                continue
            row = tab[i]
            for j, b in right:
                target, coeff = row[j]
                term = a * b
                if coeff is not None:
                    term = term * coeff
                out[target] = out[target] + term
        return type(self)(self.algebra, out)

    def __rmul__(self, other):
        # ring scalars are central
        if isinstance(other, self._SCALARS):
            return self.scale(other)
        return NotImplemented

    def mult_matrix(self) -> Mat:
        """Left multiplication x -> self * x as a matrix over the ring."""
        ring = self.algebra.ring
        n = len(self.c)
        if isinstance(ring, FieldDesc):
            tab, den = self.algebra._int_table()
            xs, dx = _bare(ring, self.c)
            rows = [[0] * n for _ in range(n)]
            for a, row in zip(xs, tab):
                if a:
                    for j, (target, coeff) in enumerate(row):
                        rows[target][j] += a * coeff
            return Mat(ring, [_wrap(ring, r, dx * den) for r in rows])
        rows = [[ring.zero()] * n for _ in range(n)]
        tab = self.algebra.table()
        for i, a in enumerate(self.c):
            if a.is_zero():
                continue
            for j, (target, coeff) in enumerate(tab[i]):
                rows[target][j] = rows[target][j] + (a if coeff is None else a * coeff)
        return Mat(ring, rows)

    def inverse(self):
        """Inverse via the regular representation; NonInvertible if singular.

        Solves self * x = 1; a one-sided inverse is two-sided in a
        finite-dimensional algebra.  Over a non-field coefficient ring
        (an EtaleQuad) the ring solves by restriction of scalars.
        """
        ring = self.algebra.ring
        m, one = self.mult_matrix(), self.algebra.one().c
        if isinstance(ring, FieldDesc):
            sol = m.solve(one)
        else:
            sol = ring.solve_restricted(m, one)
        if sol is None:
            raise NonInvertible("%s is a zero divisor" % type(self).__name__)
        return type(self)(self.algebra, sol)

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.c)

    def is_scalar(self) -> bool:
        return all(a.is_zero() for a in self.c[1:])

    def scalar_part(self):
        return self.c[0]

    def map_coeffs(self, f, algebra: Optional["TableAlgebra"] = None):
        return type(self)(algebra or self.algebra, [f(a) for a in self.c])

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash((self.algebra, tuple(self.c)))


class TableAlgebra:
    """Descriptor base for an algebra of rank `dim` over `ring`.

    Subclasses set `ring` and `dim`, name their element class `Elem` and
    the error raised on mixing algebras `Mismatch`, and return their basis
    products from `_build_table` as (target, coeff) pairs.
    """

    Mismatch = AlgebraMismatch
    _tab = None
    _int_tab = None

    def table(self):
        """Structure constants tab[i][j] = (target, coeff or None), built once."""
        if self._tab is None:
            one = self.ring.one()
            self._tab = [[(t, None if f == one else f) for t, f in row]
                         for row in self._build_table()]
        return self._tab

    def _int_table(self):
        """The table over F_p or Q on ints, built once: (tab, d) with
        tab[i][j] = (target, n), n / d the coefficient of e_i e_j (n a
        residue and d = 1 over F_p)."""
        if self._int_tab is None:
            tab, one = self.table(), self.ring.one()
            nums, d = _bare(self.ring, [one if f is None else f
                                        for row in tab for _, f in row])
            it = iter(nums)
            self._int_tab = ([[(t, next(it)) for t, _ in row] for row in tab], d)
        return self._int_tab

    def elem(self, coeffs):
        return self.Elem(self, [self.ring(v) for v in coeffs])

    def zero(self):
        return self.Elem(self, [self.ring.zero()] * self.dim)

    def one(self):
        c = [self.ring.zero()] * self.dim
        c[0] = self.ring.one()
        return self.Elem(self, c)

    def from_scalar(self, s):
        c = [self.ring.zero()] * self.dim
        c[0] = self.ring(s)
        return self.Elem(self, c)

    def __call__(self, x):
        if isinstance(x, self.Elem):
            if x.algebra is not self and x.algebra != self:
                raise self.Mismatch("element of %r used in %r" % (x.algebra, self))
            return x
        return self.from_scalar(x)


class TowerElem(TableElem):
    __slots__ = ()

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __repr__(self):
        t = self.algebra
        names = {0: ""}
        for mask in range(1, t.dim):
            parts = ["r%d" % i for i in range(t.k) if (mask >> i) & 1]
            names[mask] = "*".join(parts)
        terms = ["%s%s%s" % (c, "*" if names[m] else "", names[m])
                 for m, c in enumerate(self.c) if not c.is_zero()]
        return " + ".join(terms) if terms else "0"


class QuadTower(TableAlgebra):
    """Ring descriptor for F(sqrt(d1), ..., sqrt(dk))."""

    Elem = TowerElem
    Mismatch = FieldMismatch

    def __init__(self, field: FieldDesc, gens: Sequence):
        self.field = self.ring = field
        self.gens = [field(d) for d in gens]
        for d in self.gens:
            if d.is_zero():
                raise ValueError("cannot adjoin sqrt(0)")
        self.k = len(self.gens)
        self.dim = 1 << self.k
        # degenerate towers (an adjoined root already present) still work
        # as etale algebras; record which generators are redundant.
        self.degenerate_gens = [i for i, d in enumerate(self.gens) if is_square(d)]

    def _build_table(self):
        # the product of the roots in m1 and in m2: sqrt(d_i)^2 = d_i on the overlap
        tab = []
        for m1 in range(self.dim):
            row = []
            for m2 in range(self.dim):
                coeff = self.field.one()
                for i in range(self.k):
                    if (m1 & m2) >> i & 1:
                        coeff = coeff * self.gens[i]
                row.append((m1 ^ m2, coeff))
            tab.append(row)
        return tab

    def __eq__(self, other):
        return (isinstance(other, QuadTower) and self.field == other.field
                and self.gens == other.gens)

    def __hash__(self):
        return hash((self.field, tuple(self.gens)))

    def __repr__(self):
        return "QuadTower(%r, %s)" % (self.field, self.gens)

    def root(self, i: int) -> TowerElem:
        """The adjoined square root of gens[i]."""
        c = [self.field.zero()] * self.dim
        c[1 << i] = self.field.one()
        return TowerElem(self, c)

    def conj(self, x: TowerElem, i: int) -> TowerElem:
        """Galois conjugation negating the i-th root."""
        return TowerElem(self, [(-v if (mask >> i) & 1 else v)
                                for mask, v in enumerate(x.c)])
