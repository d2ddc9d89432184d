"""Small dense exact matrices over any of the package's rings.

Entries are duck-typed: anything supporting +, -, * and unary -.  Every
elimination (det, rank, solve, inverse, independent_subset) runs through
one forward row reduction over F_p or Q on ints: residues mod p, or over
Q each row as ints over its own denominator by `FieldDesc.ints`,
eliminated fraction-free (Bareiss), so solutions come out as ints over
one determinant for `FieldDesc.scalars`; products take the same int view.
Determinants over any other ring, including those with zero divisors,
use the division-free Berkowitz algorithm.
"""

from __future__ import annotations

from math import prod
from operator import mul

from .errors import DegenerateSpace, DimensionMismatch, NonInvertible
from .exactfield import FieldDesc


class Mat:
    """Immutable matrix; `ring` is the descriptor providing zero()/one()."""

    __slots__ = ("ring", "rows", "nrows", "ncols")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise DimensionMismatch("ragged rows")

    @classmethod
    def identity(cls, ring, n):
        z, o = ring.zero(), ring.one()
        return cls(ring, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, ring, nrows, ncols=None):
        z = ring.zero()
        ncols = nrows if ncols is None else ncols
        return cls(ring, [[z] * ncols for _ in range(nrows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise DimensionMismatch("%dx%d times %dx%d"
                                        % (self.nrows, self.ncols, other.nrows, other.ncols))
            if isinstance(self.ring, FieldDesc) and other.ring == self.ring:
                return self._field_product(other)
            out = []
            for i in range(self.nrows):
                row = []
                for j in range(other.ncols):
                    acc = self.ring.zero()
                    for k in range(self.ncols):
                        acc = acc + self.rows[i][k] * other.rows[k][j]
                    row.append(acc)
                out.append(row)
            return Mat(self.ring, out)
        # scalar
        return Mat(self.ring, [[e * other for e in r] for r in self.rows])

    def _field_product(self, other):
        """self * other over F_p or Q on the int view: other as ints over
        one denominator dc and each row of self over its own dr, so an
        entry is one int dot product and a row one scalars call."""
        ring = self.ring
        n = other.ncols
        flat, dc = ring.ints([e for row in other.rows for e in row])
        cols = [flat[j::n] for j in range(n)]
        rows = map(ring.ints, self.rows)
        return Mat(ring, [ring.scalars([sum(map(mul, r, c)) for c in cols], dr * dc)
                          for r, dr in rows])

    def __add__(self, other):
        return Mat(self.ring, [[a + b for a, b in zip(r, s)]
                               for r, s in zip(self.rows, other.rows)])

    def __neg__(self):
        return Mat(self.ring, [[-e for e in r] for r in self.rows])

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.nrows == other.nrows and self.ncols == other.ncols and all(
            a == b for r, s in zip(self.rows, other.rows) for a, b in zip(r, s))

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def transpose(self):
        return Mat(self.ring, [[self.rows[i][j] for i in range(self.nrows)]
                               for j in range(self.ncols)])

    @property
    def T(self):
        return self.transpose()

    def apply(self, vec):
        """Matrix times coordinate list."""
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length %d vs %d cols" % (len(vec), self.ncols))
        out = []
        for i in range(self.nrows):
            acc = self.ring.zero()
            for k in range(self.ncols):
                acc = acc + self.rows[i][k] * vec[k]
            out.append(acc)
        return out

    def col(self, j):
        return [self.rows[i][j] for i in range(self.nrows)]

    def _int_rows(self, rows=None):
        """The rows (self's by default) as ints for row_reduce, with one
        denominator per row: residues over 1 over F_p, over Q each row
        over the lcm of its denominators."""
        ring = self.ring
        if not isinstance(ring, FieldDesc):
            raise TypeError("row reduction runs over F_p or Q, not %r; "
                            "use berkowitz_det" % (ring,))
        rows = self.rows if rows is None else rows
        if ring.p:
            return [[e.num for e in r] for r in rows], [1] * len(rows)
        pairs = list(map(ring.ints, rows))
        return [a for a, _ in pairs], [d for _, d in pairs]

    def det(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("det of non-square matrix")
        a, dens = self._int_rows()
        return self.ring.scalars([row_reduce(a, self.ncols, self.ring.p)[1]], prod(dens))[0]

    def inverse(self):
        n = self.nrows
        if n != self.ncols:
            raise DimensionMismatch("inverse of non-square matrix")
        a, dens = self._int_rows()
        p = self.ring.p
        for i, (row, d) in enumerate(zip(a, dens)):
            row.extend(d if j == i else 0 for j in range(n))
        pivots, _ = row_reduce(a, n, p)
        if len(pivots) < n:
            raise NonInvertible("singular matrix")
        return Mat(self.ring, [self.ring.scalars(*back_substitute(a, pivots, n, n + j, p))
                               for j in range(n)]).T

    def solve(self, rhs):
        """Solve self * x = rhs (rhs a coordinate list); None if inconsistent.

        Free variables are set to 0.
        """
        if len(rhs) != self.nrows:
            raise DimensionMismatch("rhs length %d vs %d rows" % (len(rhs), self.nrows))
        a, _ = self._int_rows([row + [b] for row, b in zip(self.rows, rhs)])
        p = self.ring.p
        pivots, _ = row_reduce(a, self.ncols, p)
        if any(row[-1] for row in a[len(pivots):]):
            return None
        return self.ring.scalars(*back_substitute(a, pivots, self.ncols, self.ncols, p))

    def rank(self):
        return len(row_reduce(self._int_rows()[0], self.ncols, self.ring.p)[0])

    def __repr__(self):
        return "Mat(%s)" % self.rows


def berkowitz_det(m: Mat):
    """Division-free determinant (Berkowitz), valid over any commutative ring."""
    n = m.nrows
    if n != m.ncols:
        raise DimensionMismatch("det of non-square matrix")
    ring = m.ring
    zero, one = ring.zero(), ring.one()
    if n == 0:
        return one
    a = m.rows
    # charpoly coefficients, computed by iterated Toeplitz products
    poly = [one, -a[0][0]]
    for k in range(1, n):
        # R = row (a[k][0..k-1]), C = column (a[0..k-1][k]), M = leading k x k block
        R = a[k][:k]
        C = [a[i][k] for i in range(k)]
        M = [row[:k] for row in a[:k]]
        # items[j] = R * M^(j-2) * C for the Toeplitz column
        items = [one, -a[k][k]]
        vec = C[:]
        for _ in range(k):
            dot = zero
            for x, y in zip(R, vec):
                dot = dot + x * y
            items.append(-dot)
            vec = [sum2(ring, (M[i][t] * vec[t] for t in range(k))) for i in range(k)]
        items = items[: k + 2]
        new = [zero] * (k + 2)
        for i in range(k + 2):
            for j in range(min(i + 1, len(poly))):
                new[i] = new[i] + poly[j] * items[i - j]
        poly = new
    detval = poly[n]
    if n % 2 == 1:
        detval = -detval
    return detval


def sum2(ring, it):
    acc = ring.zero()
    for x in it:
        acc = acc + x
    return acc


def kron(ring, a: Mat, b: Mat) -> Mat:
    """Kronecker product."""
    rows = []
    for i in range(a.nrows):
        for k in range(b.nrows):
            rows.append([a.rows[i][j] * b.rows[k][l]
                         for j in range(a.ncols) for l in range(b.ncols)])
    return Mat(ring, rows)


def row_reduce(a, ncols: int, p=None):
    """Forward elimination of the rows `a` in place, over F_p or Q.

    Entries are ints: residues mod p, or any ints when p is None.  Pivots
    are sought in the first `ncols` columns, each the first nonzero entry
    at or below the current row; eliminating a pivot updates only the
    entries right of its column (columns past `ncols`, such as an
    augmented right-hand side, included), so the entries below each pivot
    are left stale rather than zeroed.  Returns
    (pivot columns, determinant of the first `ncols` columns), the
    determinant being meaningful for a square block only.

    Over Q the elimination is fraction-free (Bareiss): eliminating pivot
    pv with the previous pivot prev sets row[j] = (pv*row[j] - f*top[j])
    // prev on every row below, the division being exact.  Each reduced
    row is then a nonzero multiple of the row that elimination over Q
    would give, so the pivots and the solutions of back_substitute are the
    same, and the determinant is that of the int rows.  Callers scale a
    row of Q values to ints by `FieldDesc.ints`, which moves neither.
    """
    n = len(a)
    pivots = []
    det = 1     # over Q only the sign: the last pivot carries the rest
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, n) if a[i][c]), None)
        if piv is None:
            det = 0
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        top = a[r]
        pv = top[c]
        if p is None:
            # every row below is rescaled, even where f == 0, so that the
            # next pivot's division by pv stays exact
            rest = top[c + 1:]
            for row in a[r + 1:]:
                f = row[c]
                if f:
                    row[c + 1:] = [(pv * x - f * t) // prev
                                   for x, t in zip(row[c + 1:], rest)]
                else:
                    row[c + 1:] = [pv * x // prev for x in row[c + 1:]]
            prev = pv
        else:
            det = det * pv
            inv = pow(pv, -1, p)
            support = [j for j in range(c + 1, len(top)) if top[j]]
            for row in a[r + 1:]:
                f = row[c]
                if f:
                    f = f * inv % p
                    for j in support:
                        row[j] = (row[j] - f * top[j]) % p
        pivots.append(c)
    if p is not None:
        return pivots, det % p
    # the last pivot is the determinant of the int rows
    return pivots, det * prev


def back_substitute(a, pivots, ncols: int, k: int, p=None):
    """The solution of the system reduced by row_reduce whose right-hand
    side is column k of `a`, with every free variable 0, as (x, d) with
    the solution x / d and d > 0: residues and d = 1 over F_p.

    Over Q the rows are row_reduce's ints and the last pivot is the
    determinant of the pivot block, so its absolute value d times the
    solution is integral (Cramer): x is found on ints with exact
    divisions.
    """
    d = abs(a[len(pivots) - 1][pivots[-1]]) if pivots and not p else 1
    x = [0] * ncols
    for i in range(len(pivots) - 1, -1, -1):
        row = a[i]
        acc = row[k] * d
        for j in pivots[i + 1:]:
            if x[j]:
                acc = acc - row[j] * x[j]
        c = pivots[i]
        x[c] = acc * pow(row[c], -1, p) % p if p else acc // row[c]
    return x, d


def independent_subset(field: FieldDesc, vecs, k: int):
    """The first k vectors of vecs that are independent of those before them.

    Greedy in list order: the pivot columns of the matrix whose columns
    are vecs.  Raises DegenerateSpace when vecs span fewer than k dims.
    """
    rows = [field.ints([v[i] for v in vecs])[0] for i in range(len(vecs[0]))] if vecs else []
    pivots, _ = row_reduce(rows, len(vecs), field.p)
    if len(pivots) < k:
        raise DegenerateSpace("could not complete independent set")
    return [vecs[c] for c in pivots[:k]]
