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
denominator, canonical so that equal elements hold equal ints, read
from Scalars and turned back into them by exactfield's int view
(`FieldDesc.ints`, `FieldDesc.scalars`).  Sums,
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
from typing import Sequence

from .errors import AlgebraMismatch, DimensionMismatch, FieldMismatch, NonInvertible
from .exactfield import FieldDesc, Scalar, is_square
from .linalg import Mat, back_substitute, row_reduce


class _Restriction:
    """An algebra of rank n over R in {F_p, Q, E} as an F-algebra of rank
    r n on the basis e_i (x) u_a (index r i + a): r = 1 when R = F, else
    r = 2 and u = (1, g) is E's own basis over F.  `rows[I]` lists the
    (J, T, n) with e_I e_J = sum n / den e_T, n a nonzero int (a residue
    over F_p, den = 1), so a zero product is left out; `to_unit` lists the
    (I, J, t, n) with t < r.  E's own products u_a u_b come from E's int
    rows, `one` holds the unit's F-coordinates and `p` is F's prime (None
    over Q).  Every structure constant is read over one denominator.
    """

    __slots__ = ("field", "p", "r", "rows", "den", "one", "to_unit")

    def __init__(self, algebra: "TableAlgebra"):
        ring = algebra.ring
        if isinstance(ring, FieldDesc):
            self.field, self.r, units, unit_den = ring, 1, [{0: (0, 1)}], 1
        elif isinstance(ring, TableAlgebra) and ring.coefficient_ring:
            own = ring._restriction()
            self.field, self.r = ring.field, ring.dim
            # E's basis products have one target each
            units = [{j: (t, n) for j, t, n in row} for row in own.rows]
            unit_den = own.den
        else:
            raise TypeError("table products run over F_p, Q or an etale "
                            "quadratic algebra, not %r" % (ring,))
        r = self.r
        self.p = self.field.p
        table = algebra.table()
        # the table's coefficients k as ints over one kd
        flat, kd = self.unwrap([k for row in table for _, k in row])
        ks = iter([flat[i:i + r] for i in range(0, len(flat), r)])
        # (e_i u_a)(e_j u_b) = k e_t u_a u_b with k = sum_g k_g u_g, on ints
        # over kd unit_den^2
        entries = []
        for i, row in enumerate(table):
            for j, (t, _) in enumerate(row):
                kc = next(ks)
                for a, b in itertools.product(range(r), repeat=2):
                    c, m = units[a][b]
                    out = [0] * r
                    for g, kg in enumerate(kc):
                        if kg:
                            h, n = units[g][c]
                            out[h] += kg * m * n
                    entries += [(r * i + a, r * j + b, r * t + h, v)
                                for h, v in enumerate(out)]
        # residues over F_p (where kd and unit_den are 1), over Q reduced
        nums = [e[-1] % self.p for e in entries] if self.p else [e[-1] for e in entries]
        nums, self.den = self.reduce(nums, kd * unit_den * unit_den)
        self.rows = [[] for _ in range(r * algebra.dim)]
        for (i, j, t, _), n in zip(entries, nums):
            if n:
                self.rows[i].append((j, t, n))
        self.to_unit = [(i, *e) for i, row in enumerate(self.rows)
                        for e in row if e[1] < r]
        self.one = self.unwrap(algebra.one().c)[0]

    def unwrap(self, coeffs):
        """The F-coordinates of ring coefficients as ints over one
        denominator: Scalars through the int view, or the ints of E's
        elements."""
        if self.r == 1:
            return self.field.ints(coeffs)
        parts = [z._ints() for z in coeffs]
        d = math.lcm(*(dz for _, dz in parts))
        return [v * (d // dz) for vs, dz in parts for v in vs], d

    def reduce(self, ints, d):
        """ints / d over Q in canonical form: a positive d prime to every
        numerator."""
        g = math.gcd(d, *ints)
        return ([v // g for v in ints], d // g) if g > 1 else (ints, d)

    def coeffs(self, ring, ints, d):
        """Coefficients in `ring` with the F-coordinates ints / d."""
        r = self.r
        if r == 1:
            return self.field.scalars(ints, d)
        return [ring.Elem._of(ring, ints[i:i + r], d) for i in range(0, len(ints), r)]

    def left_rows(self, xs, dx):
        """Left multiplication by xs / dx on the F-coordinates: int rows over d."""
        rows = [[0] * len(xs) for _ in xs]
        for a, row in zip(xs, self.rows):
            if a:
                for j, t, n in row:
                    rows[t][j] += a * n
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
        res = algebra._res or algebra._restriction()
        p = res.p
        if p:
            x._v, x._d = [a % p for a in v], 1
        else:
            x._v, x._d = res.reduce(v, d)
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
        xs, dx = (self._v, self._d) if self._v is not None else self._ints()
        ys, dy = (other._v, other._d) if other._v is not None else other._ints()
        if dx == dy:
            v = ([a + b for a, b in zip(xs, ys)] if sign > 0
                 else [a - b for a, b in zip(xs, ys)])
            return self._of(self.algebra, v, dx)
        d = dx * dy // math.gcd(dx, dy)
        fx, fy = d // dx, sign * (d // dy)
        return self._of(self.algebra, [a * fx + b * fy for a, b in zip(xs, ys)], d)

    def __add__(self, other):
        if type(other) is not type(self) or other.algebra is not self.algebra:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not type(self) or other.algebra is not self.algebra:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        v, d = (self._v, self._d) if self._v is not None else self._ints()
        p = (self.algebra._res or self.algebra._restriction()).p
        return self._reduced([p - a if a else 0 for a in v] if p else [-a for a in v], d)

    def _signed(self, signs):
        """The element with its i-th coefficient times signs[i] = +-1."""
        v, d = (self._v, self._d) if self._v is not None else self._ints()
        r = len(v) // len(signs)
        if r > 1:
            signs = [s for s in signs for _ in range(r)]
        p = (self.algebra._res or self.algebra._restriction()).p
        return self._reduced([a if s > 0 or not a else p - a if p else -a
                              for a, s in zip(v, signs)], d)

    def _reduced(self, v, d):
        """The element with F-coordinates v / d, already reduced: a sign
        flip keeps them so (a residue a as p - a), so it skips `_of`."""
        x = self.__new__(type(self))
        x.algebra, x._v, x._d, x._c = self.algebra, v, d, None
        return x

    def scale(self, s):
        """s * self for s in F (on the ints) or in E (E's own products)."""
        res = self.algebra._restriction()
        v, d = self._ints()
        if res.r == 1 or not isinstance(s, TableElem):
            (s,), ds = res.field.ints([res.field(s)])
            return self._of(self.algebra, [a * s for a in v], d * ds)
        # each coefficient's (1, g) coordinates times E's 2 x 2 left
        # multiplication by s
        z = self.algebra.ring(s)
        ((m00, m01), (m10, m11)), dz = z.algebra._restriction().left_rows(*z._ints())
        out = []
        for x0, x1 in zip(v[::2], v[1::2]):
            out += (m00 * x0 + m01 * x1, m10 * x0 + m11 * x1)
        return self._of(self.algebra, out, d * dz)

    def __mul__(self, other):
        if type(other) is not type(self) or other.algebra is not self.algebra:
            if isinstance(other, self._SCALARS):
                return self.scale(other)
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        res = self.algebra._res or self.algebra._restriction()
        xs, dx = (self._v, self._d) if self._v is not None else self._ints()
        ys, dy = (other._v, other._d) if other._v is not None else other._ints()
        out = [0] * len(xs)
        if any(ys):
            for a, row in zip(xs, res.rows):
                if a:
                    for j, t, n in row:
                        b = ys[j]
                        if b:
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
        return Mat(res.field, [res.field.scalars(r, d) for r in rows])

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
        return self._of(self.algebra, *back_substitute(rows, pivots, n, n, p))

    def is_zero(self) -> bool:
        return not any(self._ints()[0])

    def is_scalar(self) -> bool:
        v, _ = self._ints()
        return not any(v[len(v) // self.algebra.dim:])

    def scalar_part(self):
        """The unit coefficient, built alone when no `c` view is cached."""
        if self._c is not None:
            return self._c[0]
        res = self.algebra._restriction()
        v, d = self._ints()
        return res.coeffs(self.algebra.ring, v[:res.r], d)[0]

    def rho(self):
        """The Galois action g -> -g of E: E's conjugation on E itself and
        coefficientwise over E, the odd F-coordinates negated on the ints.
        TypeError on an algebra over F_p or Q."""
        algebra = self.algebra
        if not (algebra.coefficient_ring or algebra._restriction().r == 2):
            raise TypeError("rho acts on E and on algebras over E, not on %r"
                            % (algebra,))
        v, d = self._ints()
        return self._of(algebra, [-a if i & 1 else a for i, a in enumerate(v)], d)

    def over(self, algebra: "TableAlgebra"):
        """This element of an algebra A over F in `algebra` = A_E, its base
        change to an etale E (`QuatAlg.over`): each coefficient c becomes
        c + 0 g, zeros interleaved into the ints."""
        v, d = self._ints()
        out = [0] * (2 * len(v))
        out[::2] = v
        return algebra.Elem._of(algebra, out, d)

    def field_coords(self):
        """The F-coordinates as Scalars: the coefficients over F, and over E
        the (1, g) coordinates of each coefficient."""
        return self.algebra._restriction().field.scalars(*self._ints())

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
        """The element with these coefficients, one per basis element;
        DimensionMismatch on any other count."""
        if len(coeffs) != self.dim:
            raise DimensionMismatch("%d coefficients for an algebra of rank %d"
                                    % (len(coeffs), self.dim))
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
