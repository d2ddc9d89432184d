"""Structure-constant algebras, and the multi-quadratic etale algebras
F(sqrt(d1), ..., sqrt(dk)) over F_p or Q built on them.

`TableAlgebra` and `TableElem` are the one algebra core shared by the
etale quadratic E, the quaternion and bi-quaternion algebras of
`algebras` and the towers here.  An algebra is free of rank `dim` over
its coefficient ring, and its basis products come from a structure
table: tab[i][j] = (target, coeff) means e_i e_j = coeff * e_target.

The coefficient ring is F_p, Q or an etale quadratic algebra E over one
of them (any other raises TypeError on the first arithmetic operation).
E is itself a table algebra of rank 2 over F on the basis (1, g), and by
restriction of scalars an algebra of rank n over E is one of rank 2n
over F.  Ints are the state of an element: its F-coordinates over one
denominator, canonical so that equal elements hold equal ints.  Sums,
products, scaling, the sign-mask involutions, equality and the inverse
all run on those ints, with the structure constants kept as ints once
per descriptor.  The ring coefficients `c` (Scalars, or elements of E
over E) are a cached, read-only view built on first read; an element
built from coefficients reads its ints from them once, on its first
arithmetic operation.  The subclasses keep only their own involutions,
norms and conjugations.

Tower elements carry 2^k coordinates indexed by subsets of the adjoined
roots (bitmask order).  These towers back the split embeddings of
quaternion algebras and the exterior-square constructions; they are
commutative rings, possibly with zero divisors when an adjoined class
degenerates.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from .errors import AlgebraMismatch, FieldMismatch, NonInvertible
from .exactfield import FieldDesc, Scalar, _ints_over_lcm, is_square
from .linalg import Mat, back_substitute, row_reduce


class _Restriction:
    """An algebra of rank n over R in {F_p, Q, E} as an F-algebra of rank
    r n on the basis e_i (x) u_a (index r i + a): r = 1 when R = F, else
    r = 2 and u = (1, g) is E's own basis over F.  e_I e_J = sum n / den
    e_T over the (T, n) = tab[I][J] of each of the `layers`, n a nonzero
    int (a residue over F_p, den = 1); a zero product is None and
    skipped; `to_unit` lists the (I, J, t, n) with t < r.  E's own products
    u_a u_b come from E's int table, and `one` holds the unit's F-coordinates.
    """

    __slots__ = ("field", "r", "layers", "den", "one", "to_unit")

    def __init__(self, algebra: "TableAlgebra"):
        ring = algebra.ring
        if isinstance(ring, FieldDesc):
            self.field, self.r, units, unit_den = ring, 1, [[(0, 1)]], 1
        elif isinstance(ring, TableAlgebra) and ring.coefficient_ring:
            own = ring._restriction()
            self.field, self.r = ring.field, ring.dim
            (units,), unit_den = own.layers, own.den
        else:
            raise TypeError("table products run over F_p, Q or an etale "
                            "quadratic algebra, not %r" % (ring,))
        r = self.r
        # (e_i u_a)(e_j u_b) = k e_t u_a u_b with k = sum_g k_g u_g, on ints
        # over kd unit_den^2
        entries = []
        for i, row in enumerate(algebra.table()):
            for j, (t, k) in enumerate(row):
                kc, kd = self.unwrap([k])
                den = kd * unit_den * unit_den
                for a, b in itertools.product(range(r), repeat=2):
                    c, m = units[a][b]
                    out = [0] * r
                    for g, kg in enumerate(kc):
                        if kg:
                            h, n = units[g][c]
                            out[h] += kg * m * n
                    entries += [(r * i + a, r * j + b, r * t + h,
                                 v if den == 1 else Fraction(v, den))
                                for h, v in enumerate(out) if v]
        entries, self.den = self._over_den(entries)
        # a product with two targets (over a field E, a symbol outside F)
        # puts the second in a second layer
        self.layers = []
        for i, j, t, n in entries:
            tab = next((tab for tab in self.layers if tab[i][j] is None), None)
            if tab is None:
                tab = [[None] * (r * algebra.dim) for _ in range(r * algebra.dim)]
                self.layers.append(tab)
            tab[i][j] = (t, n)
        self.to_unit = [(i, j, *e) for tab in self.layers for i, row in enumerate(tab)
                        for j, e in enumerate(row) if e and e[0] < r]
        self.one = self.unwrap(algebra.one().c)[0]

    def _over_den(self, entries):
        """The entries with the values that end them as ints over one
        denominator (residues over F_p), and that denominator."""
        values = [e[-1] for e in entries]
        nums, den = (_ints_over_lcm(values) if self.field.p is None
                     else ([v % self.field.p for v in values], 1))
        return [(*e[:-1], n) for e, n in zip(entries, nums)], den

    def unwrap(self, coeffs):
        """The F-coordinates of ring coefficients as ints over one
        denominator: the values of Scalars, or the ints of E's elements."""
        if self.r == 1:
            values = [s.value for s in coeffs]
            return _ints_over_lcm(values) if self.field.p is None else (values, 1)
        parts = [z._ints() for z in coeffs]
        d = math.lcm(*(dz for _, dz in parts))
        return [v * (d // dz) for vs, dz in parts for v in vs], d

    def reduce(self, ints, d):
        """ints / d in canonical form: residues mod p over F_p (d = 1), and
        over Q a positive d prime to every numerator."""
        p = self.field.p
        if p:
            return [v % p for v in ints], 1
        g = math.gcd(d, *ints)
        return ([v // g for v in ints], d // g) if g > 1 else (ints, d)

    def scalars(self, ints, d):
        """Scalars of F equal to ints / d, reduced once each."""
        f = self.field
        if f.p is None:
            return [Scalar(f, Fraction(v, d)) for v in ints]
        return [Scalar(f, v % f.p) for v in ints]

    def coeffs(self, ring, ints, d):
        """Coefficients in `ring` with the F-coordinates ints / d."""
        r = self.r
        if r == 1:
            return self.scalars(ints, d)
        return [ring.Elem._of(ring, ints[i:i + r], d) for i in range(0, len(ints), r)]

    def left_rows(self, xs, dx):
        """Left multiplication by xs / dx on the F-coordinates: int rows over d."""
        rows = [[0] * len(xs) for _ in xs]
        for tab in self.layers:
            for a, row in zip(xs, tab):
                if a:
                    for j, e in enumerate(row):
                        if e:
                            rows[e[0]][j] += a * e[1]
        return rows, dx * self.den


class TableElem:
    """Element base: F-coordinates `_v` over the denominator `_d`.

    Over F_p the `_v` are residues and `_d` is 1; over Q, `_d` is positive
    and prime to every entry of `_v`.  `c`, the coefficients over
    `algebra.ring`, is a cached view that nothing may mutate.  An element
    built from coefficients keeps them as that view and sets `_v` from
    them on its first arithmetic operation.

    `_SCALARS` lists the types that act as central ring scalars.
    """

    __slots__ = ("algebra", "_v", "_d", "_c")
    _SCALARS = (int, Scalar)

    def __init__(self, algebra: "TableAlgebra", coeffs):
        self.algebra = algebra
        self._c = list(coeffs)
        self._v = self._d = None

    @classmethod
    def _of(cls, algebra: "TableAlgebra", v, d):
        """The element with F-coordinates v / d (any ints, d > 0)."""
        x = cls.__new__(cls)
        x.algebra = algebra
        x._v, x._d = algebra._restriction().reduce(v, d)
        x._c = None
        return x

    @property
    def c(self):
        if self._c is None:
            res = self.algebra._restriction()
            self._c = res.coeffs(self.algebra.ring, self._v, self._d)
        return self._c

    def _ints(self):
        """(F-coordinates, denominator), read once from `c` if built from it."""
        if self._v is None:
            self._v, self._d = self.algebra._restriction().unwrap(self._c)
        return self._v, self._d

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

    def _plus(self, other, sign):
        """self + sign * other over the lcm of the denominators."""
        (xs, dx), (ys, dy) = self._ints(), other._ints()
        d = dx * dy // math.gcd(dx, dy)
        fx, fy = d // dx, sign * (d // dy)
        return self._of(self.algebra, [a * fx + b * fy for a, b in zip(xs, ys)], d)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        v, d = self._ints()
        return self._of(self.algebra, [-a for a in v], d)

    def _signed(self, signs):
        """The element with its i-th coefficient times signs[i] = +-1."""
        v, d = self._ints()
        r = len(v) // len(signs)
        return self._of(self.algebra, [-a if signs[i // r] < 0 else a
                                       for i, a in enumerate(v)], d)

    def scale(self, s):
        """s * self for s in F (on the ints) or in E (E's own products)."""
        res = self.algebra._restriction()
        v, d = self._ints()
        if res.r == 1 or isinstance(s, (int, Fraction, Scalar)):
            s = res.field(s).value
            return self._of(self.algebra, [a * s.numerator for a in v],
                            d * s.denominator)
        # each coefficient's (1, g) coordinates times E's 2 x 2 left
        # multiplication by s
        z = self.algebra.ring(s)
        ((m00, m01), (m10, m11)), dz = z.algebra._restriction().left_rows(*z._ints())
        out = []
        for x0, x1 in zip(v[::2], v[1::2]):
            out += (m00 * x0 + m01 * x1, m10 * x0 + m11 * x1)
        return self._of(self.algebra, out, d * dz)

    def __mul__(self, other):
        if isinstance(other, self._SCALARS):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        res = self.algebra._restriction()
        xs, dx = self._ints()
        ys, dy = other._ints()
        out = [0] * len(xs)
        right = [(j, b) for j, b in enumerate(ys) if b]
        for tab in res.layers:
            for a, row in zip(xs, tab):
                if a:
                    for j, b in right:
                        e = row[j]
                        if e:
                            t, n = e
                            out[t] += a * b * n
        return self._of(self.algebra, out, dx * dy * res.den)

    def _unit_of(self, other):
        """The unit coefficient of self * other, in the ring, from the
        products that reach it alone."""
        res = self.algebra._restriction()
        (xs, dx), (ys, dy) = self._ints(), other._ints()
        out = [0] * res.r
        for i, j, t, n in res.to_unit:
            out[t] += xs[i] * ys[j] * n
        return res.coeffs(self.algebra.ring, out, dx * dy * res.den)[0]

    def __rmul__(self, other):
        # ring scalars are central
        if isinstance(other, self._SCALARS):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def mult_matrix(self) -> Mat:
        """Left multiplication x -> self * x as a matrix over the base field
        F on the F-coordinates: over E, the (1, g) coordinates of each
        coefficient."""
        res = self.algebra._restriction()
        rows, d = res.left_rows(*self._ints())
        return Mat(res.field, [res.scalars(r, d) for r in rows])

    def inverse(self):
        """Inverse via the regular representation; NonInvertible if singular.

        Solves self * x = 1 over F on ints: (rows / d) x = ones.  A
        one-sided inverse is two-sided in a finite-dimensional algebra.
        """
        res = self.algebra._restriction()
        rows, d = res.left_rows(*self._ints())
        p, n = res.field.p, len(rows)
        rows = [[v % p if p else v for v in row] + [o * d]
                for row, o in zip(rows, res.one)]
        pivots, _ = row_reduce(rows, n, p)
        if len(pivots) < n:
            raise NonInvertible("%s is a zero divisor" % type(self).__name__)
        x = back_substitute(rows, pivots, n, n, p)
        return self._of(self.algebra, *(_ints_over_lcm(x) if p is None else (x, 1)))

    def is_zero(self) -> bool:
        return not any(self._ints()[0])

    def is_scalar(self) -> bool:
        v, _ = self._ints()
        return not any(v[len(v) // self.algebra.dim:])

    def scalar_part(self):
        return self.c[0]

    def map_coeffs(self, f, algebra: Optional["TableAlgebra"] = None):
        return type(self)(algebra or self.algebra, [f(a) for a in self.c])

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._ints() == other._ints()

    def __hash__(self):
        return hash((self.algebra, tuple(self.c)))


@functools.lru_cache(maxsize=256)
def _restriction_of(algebra: "TableAlgebra") -> _Restriction:
    """One `_Restriction` per equal descriptor (by its __eq__/__hash__)."""
    return _Restriction(algebra)


class TableAlgebra:
    """Descriptor base for an algebra of rank `dim` over `ring`.

    Subclasses set `ring` and `dim`, name their element class `Elem` and
    the error raised on mixing algebras `Mismatch`, return their basis
    products from `table` as (target, coeff) pairs, and define __eq__ and
    __hash__ on what the table is built from.
    """

    Mismatch = AlgebraMismatch
    # whether other table algebras take this one as their coefficient ring
    # (the etale E, commutative of rank 2 over F)
    coefficient_ring = False
    _res = None

    def _restriction(self) -> _Restriction:
        """The algebra over F on ints (`_Restriction`), shared by equal
        descriptors and looked up once per descriptor."""
        if self._res is None:
            self._res = _restriction_of(self)
        return self._res

    def elem(self, coeffs):
        return self.Elem(self, [self.ring(v) for v in coeffs])

    def zero(self):
        return self.Elem(self, [self.ring.zero()] * self.dim)

    def one(self):
        return self.from_scalar(self.ring.one())

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

    def table(self):
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
        return TowerElem._of(self, [int(m == 1 << i) for m in range(self.dim)], 1)

    def conj(self, x: TowerElem, i: int) -> TowerElem:
        """Galois conjugation negating the i-th root."""
        return self(x)._signed([-1 if (m >> i) & 1 else 1 for m in range(self.dim)])
