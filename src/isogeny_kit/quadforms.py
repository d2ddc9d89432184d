"""Quadratic spaces over F_p or Q: orthogonal complements, diagonalization,
isotropy, Witt decomposition, reflections, constructive Cartan-Dieudonne
factorization, and the spinor norm (from the Wall form, with no
factorization).

A space is a nondegenerate symmetric Gram matrix; vectors are coordinate
lists; isometries are matrices T with T^t G T = G.
"""

from __future__ import annotations

import itertools
import random
from operator import mul
from typing import List, Optional, Tuple

from .errors import (
    DegenerateSpace,
    DimensionMismatch,
    InvariantViolated,
    IsotropicMirror,
    NoIsotropicVector,
    SearchBudgetExceeded,
)
from .exactfield import (
    FieldDesc,
    Scalar,
    SquareClass,
    _ints_over_lcm,
    sqrt_exact,
    square_class,
)
from .linalg import Mat, independent_subset, row_reduce


class QuadSpace:
    """Nondegenerate quadratic space given by a symmetric Gram matrix."""

    def __init__(self, field: FieldDesc, gram):
        self.field = field
        if isinstance(gram, Mat):
            self.gram = gram
        else:
            self.gram = Mat(field, [[field(e) for e in row] for row in gram])
        self.dim = self.gram.nrows
        if self.gram.T != self.gram:
            raise ValueError("Gram matrix is not symmetric")
        if self.gram.det().is_zero():
            raise DegenerateSpace("Gram matrix is singular")
        # diagonal entries of a diagonal Gram matrix (G v in O(n)), else None
        rows = self.gram.rows
        n = self.dim
        self.diag = ([rows[i][i] for i in range(n)]
                     if all(rows[i][j].is_zero()
                            for i in range(n) for j in range(n) if i != j)
                     else None)

    @classmethod
    def diagonal(cls, field: FieldDesc, entries):
        entries = [field(e) for e in entries]
        z = field.zero()
        return cls(field, Mat(field, [[entries[i] if i == j else z
                                       for j in range(len(entries))]
                                      for i in range(len(entries))]))

    def __repr__(self):
        return "QuadSpace(%r, %s)" % (self.field, self.gram.rows)

    def __eq__(self, other):
        return (isinstance(other, QuadSpace) and self.field == other.field
                and self.gram == other.gram)

    def _gram_apply(self, v):
        """G v as a coordinate list."""
        if self.diag is not None:
            return [d * x for d, x in zip(self.diag, v)]
        return self.gram.apply(v)

    def pairing(self, u, v) -> Scalar:
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("vector does not conform to space")
        gv = self._gram_apply(v)
        acc = self.field.zero()
        for a, b in zip(u, gv):
            acc = acc + a * b
        return acc

    def vnorm(self, v) -> Scalar:
        return self.pairing(v, v)

    def basis_vector(self, i):
        return [self.field(1 if j == i else 0) for j in range(self.dim)]

    def restrict(self, basis) -> "QuadSpace":
        """The subspace spanned by `basis`, with the Gram matrix of its
        pairings (DegenerateSpace when that is singular)."""
        return QuadSpace(self.field, Mat(self.field, [[self.pairing(u, v) for v in basis]
                                                      for u in basis]))

    def to_json(self):
        return {"field": "p=%d" % self.field.p if self.field.p else "Q",
                "gram": [[repr(e) for e in row] for row in self.gram.rows]}

    def random_vector(self, rng: random.Random, height: int = 5):
        if self.field.p is not None:
            return [self.field(rng.randrange(self.field.p)) for _ in range(self.dim)]
        return [self.field(rng.randint(-height, height)) for _ in range(self.dim)]

    def random_anisotropic(self, rng: random.Random, height: int = 5):
        while True:
            v = self.random_vector(rng, height)
            if not self.vnorm(v).is_zero():
                return v


class Isometry:
    """Matrix preserving the form of its space: T^t G T = G."""

    def __init__(self, space: QuadSpace, matrix: Mat, check: bool = True):
        self.space = space
        self.matrix = matrix
        if check and not self.is_valid():
            raise ValueError("matrix does not preserve the form")

    def is_valid(self) -> bool:
        """T^t G T == G.  For a diagonal G over F_p or Q, on bare values:
        sum_k d_k T_ki T_kj for i <= j, each column of T as ints over one
        denominator (and d over one more)."""
        space, t = self.space, self.matrix
        n, field = space.dim, space.field
        if space.diag is None or t.ring != field or t.nrows != n or t.ncols != n:
            return t.T * space.gram * t == space.gram
        p = field.p
        cols = [list(c) for c in zip(*t._values()[0])]
        d = [e.value for e in space.diag]
        if p:
            dens = [1] * n
        else:
            d, _ = _ints_over_lcm(d)
            cols, dens = zip(*map(_ints_over_lcm, cols))
        for i, ci in enumerate(cols):
            dci = list(map(mul, d, ci))
            for j in range(i, n):
                # G_ij over the common denominator of the (i, j) sum
                s = sum(map(mul, dci, cols[j])) - (d[i] * dens[i] ** 2 if i == j else 0)
                if (s % p if p else s):
                    return False
        return True

    def __mul__(self, other: "Isometry") -> "Isometry":
        return Isometry(self.space, self.matrix * other.matrix, check=False)

    def __eq__(self, other):
        return isinstance(other, Isometry) and self.matrix == other.matrix

    def apply(self, v):
        return self.matrix.apply(v)

    def det(self) -> Scalar:
        return self.matrix.det()

    @classmethod
    def identity(cls, space: QuadSpace) -> "Isometry":
        return cls(space, Mat.identity(space.field, space.dim), check=False)

    def to_json(self):
        return {"field": "p=%d" % self.space.field.p if self.space.field.p else "Q",
                "gram": [[repr(e) for e in row] for row in self.space.gram.rows],
                "matrix": [[repr(e) for e in row] for row in self.matrix.rows]}

    def __repr__(self):
        return "Isometry(%s)" % self.matrix.rows


def diagonalize(space: QuadSpace) -> Tuple[Mat, List[Scalar]]:
    """Basis change P with P^t G P diagonal (nonzero entries).

    Symmetric Gauss pivoting; uses v with |v|^2 != 0, which exists for a
    nondegenerate form in characteristic != 2.  Cached per space.
    """
    cached = getattr(space, "_diag_cache", None)
    if cached is not None:
        return cached
    field = space.field
    n = space.dim
    basis = [space.basis_vector(i) for i in range(n)]
    out_basis = []
    diag = []
    for _ in range(n):
        v = _anisotropic_in_span(space, basis)
        if v is None:
            raise DegenerateSpace("no anisotropic vector in complement")
        out_basis.append(v)
        diag.append(space.vnorm(v))
        basis = complement(space, v, basis)
    p = Mat(field, out_basis).T
    space._diag_cache = (p, diag)
    return p, diag


def complement(space: QuadSpace, v, basis=None):
    """A basis of the orthogonal complement of the anisotropic v inside
    span(basis) (the whole space by default): each basis vector projected
    off v, keeping the first len(basis) - 1 independent ones."""
    if basis is None:
        basis = [space.basis_vector(i) for i in range(space.dim)]
    c = space.vnorm(v)
    projected = [_sub_vec(b, _scale_vec(space.pairing(b, v) / c, v)) for b in basis]
    return independent_subset(space.field, projected, len(basis) - 1)


def to_ambient(coords, basis):
    """The vector sum_k coords[k] basis[k]: coordinates in a subspace's
    basis carried to those of the space the basis vectors live in."""
    out = _scale_vec(coords[0], basis[0])
    for c, b in zip(coords[1:], basis[1:]):
        out = _add_vec(out, _scale_vec(c, b))
    return out


def _scale_vec(c: Scalar, v):
    return [c * x for x in v]


def _sub_vec(u, v):
    return [a - b for a, b in zip(u, v)]


def _add_vec(u, v):
    return [a + b for a, b in zip(u, v)]


def _is_zero_vec(v):
    return all(x.is_zero() for x in v)


def _anisotropic_in_span(space: QuadSpace, basis):
    """Anisotropic vector in the span of `basis` (chars != 2 guarantee)."""
    for v in basis:
        if not space.vnorm(v).is_zero():
            return v
    for u, v in itertools.combinations(basis, 2):
        w = _add_vec(u, v)
        if not space.vnorm(w).is_zero():
            return w
    return None


def determinant_class(space: QuadSpace) -> SquareClass:
    return square_class(space.gram.det())


def discriminant(space: QuadSpace) -> SquareClass:
    n = space.dim
    sign = space.field(-1) ** (n * (n - 1) // 2)
    return square_class(space.gram.det() * sign)


def find_isotropic(space: QuadSpace, budget: int = 10):
    """A nonzero isotropic vector, or None.

    Dim 2: one square root decides d0 x^2 + d1 y^2 = 0 on the diagonal
    (certified).  F_p: coordinate-slicing in dim >= 3 (always conclusive).
    Q: certified None for definite forms; otherwise a height-bounded
    search that raises SearchBudgetExceeded when exhausted.
    """
    field = space.field
    n = space.dim
    if n == 1:
        return None
    p_mat, diag = diagonalize(space)

    def back(coords):
        return p_mat.apply(coords)

    if n == 2:
        d0, d1 = diag
        if field.p is not None:
            r = sqrt_exact(-d0 / d1)
            return None if r is None else back([field(1), r])
        r = sqrt_exact(-d1 / d0)
        return None if r is None else back([r, field(1)])
    if field.p is not None:
        p = field.p
        # dim >= 3: slice over the first two coordinates
        for a in range(p):
            for b in range(p):
                val = -(diag[0] * field(a) * field(a) + diag[1] * field(b) * field(b))
                c = sqrt_exact(val / diag[2])
                if c is None or (a == 0 and b == 0 and c.is_zero()):
                    continue
                v = [field(a), field(b), c] + [field(0)] * (n - 3)
                return back(v)
        return None

    # Q: certificates first
    signs = {1 if e.value > 0 else -1 for e in diag}
    if len(signs) == 1:
        return None  # definite

    def value(coords):
        acc = field.zero()
        for e, x in zip(diag, coords):
            acc = acc + e * x * x
        return acc

    rng_range = range(-budget, budget + 1)
    # sparse supports first: keeps high dimensions tractable
    for support_size in (2, 3):
        if support_size > n:
            break
        for support in itertools.combinations(range(n), support_size):
            for vals in itertools.product(rng_range, repeat=support_size):
                if all(c == 0 for c in vals):
                    continue
                v = [field(0)] * n
                for idx, c in zip(support, vals):
                    v[idx] = field(c)
                if value(v).is_zero():
                    return back(v)
    if n <= 4:
        for coords in itertools.product(rng_range, repeat=n):
            if all(c == 0 for c in coords):
                continue
            v = [field(c) for c in coords]
            if value(v).is_zero():
                return back(v)
    raise SearchBudgetExceeded("no isotropic vector found within budget")


def split_hyperbolic(space: QuadSpace, budget: int = 10):
    """Split off a hyperbolic pair (e, f) with <e,f> = 1.

    Returns (e, f, complement QuadSpace, complement basis as vectors of
    the ambient space).
    """
    field = space.field
    e = find_isotropic(space, budget=budget)
    if e is None:
        raise NoIsotropicVector("space is anisotropic")
    # partner with <e, f'> != 0
    f = None
    for i in range(space.dim):
        b = space.basis_vector(i)
        if not space.pairing(e, b).is_zero():
            f = b
            break
    f = _scale_vec(space.pairing(e, f).inverse(), f)
    f = _sub_vec(f, _scale_vec(space.vnorm(f) / field(2), e))
    # e + f and e - f are orthogonal, of norms 2 and -2
    comp = complement(space, _add_vec(e, f))
    comp = complement(space, _sub_vec(e, f), comp)
    sub = space.restrict(comp) if comp else None
    return e, f, sub, comp


def witt_decompose(space: QuadSpace, budget: int = 10):
    """(Witt index r, anisotropic kernel or None, kernel basis in ambient coords)."""
    r = 0
    current = space
    embed = [space.basis_vector(i) for i in range(space.dim)]
    while current is not None:
        try:
            _, _, sub, comp = split_hyperbolic(current, budget=budget)
        except NoIsotropicVector:
            break
        r += 1
        embed = [to_ambient(w, embed) for w in comp]
        current = sub
    return r, current, embed


def reflect(space: QuadSpace, v) -> Isometry:
    """The reflection inverting v: x -> x - 2<x,v>/|v|^2 v."""
    m = _reflect_matrix_left(space, v, Mat.identity(space.field, space.dim))
    return Isometry(space, m, check=False)


def _reflect_matrix_left(space: QuadSpace, v, m: Mat) -> Mat:
    """R_v * M as a rank-one update M - v s, s = (2/|v|^2) (v^t G M), on
    bare values: s sums over the nonzero entries of G v only, the rows
    where v is 0 are kept, and each new entry is wrapped once."""
    c = space.vnorm(v)
    if c.is_zero():
        raise IsotropicMirror("mirror vector is isotropic")
    f = space.field
    p = f.p
    gv = [(g.value, row) for g, row in zip(space._gram_apply(v), m.rows) if g.value]
    factor = (f(2) / c).value
    s = [factor * sum(g * row[j].value for g, row in gv) for j in range(space.dim)]
    rows = []
    for a, row in zip(v, m.rows):
        a = a.value
        if a and p:
            row = [Scalar(f, (e.value - a * t) % p) for e, t in zip(row, s)]
        elif a:
            row = [Scalar(f, e.value - a * t) for e, t in zip(row, s)]
        rows.append(row)
    return Mat(f, rows)


def cartan_dieudonne(t: Isometry, pivot_order: Optional[List[int]] = None):
    """Mirror vectors [v1, ..., vk] with reflect(v1)*...*reflect(vk) = T.

    Works in a diagonalizing basis so the two-step fallback (reflect in
    w+e then in e) always applies; k <= 2n.  `pivot_order` permutes the
    basis sweep and is used to test factorization independence.
    """
    space = t.space
    field = space.field
    n = space.dim
    cached = getattr(space, "_cdt_cache", None)
    if cached is None:
        p_mat, diag = diagonalize(space)
        trivial = p_mat == Mat.identity(field, n)
        p_inv = p_mat.inverse()
        dspace = space if trivial else QuadSpace.diagonal(field, diag)
        cached = (p_mat, p_inv, dspace, trivial)
        space._cdt_cache = cached
    p_mat, p_inv, dspace, trivial = cached
    m = t.matrix if trivial else p_inv * t.matrix * p_mat  # diagonal coords
    order = pivot_order if pivot_order is not None else list(range(n))
    mirrors_d = []
    for k in order:
        e = dspace.basis_vector(k)
        w = m.col(k)
        u = _sub_vec(w, e)
        if _is_zero_vec(u):
            continue
        if not dspace.vnorm(u).is_zero():
            mirrors_d.append(u)
            m = _reflect_matrix_left(dspace, u, m)
        else:
            u2 = _add_vec(w, e)
            # |w-e|^2 + |w+e|^2 = 4|e|^2 != 0, so u2 is anisotropic here
            mirrors_d.append(u2)
            m = _reflect_matrix_left(dspace, u2, m)
            mirrors_d.append(e)
            m = _reflect_matrix_left(dspace, e, m)
    if m != Mat.identity(field, n):
        raise InvariantViolated("factorization failed to reach identity")
    # R_{v_last} ... R_{v_first} T = 1, so T = R_{v_first}^-1 ... = product
    # of the same reflections in recorded order (each is an involution).
    if trivial:
        return mirrors_d
    return [p_mat.apply(v) for v in mirrors_d]


def wall_value(one_minus, gram, p):
    """2^k det(chi), chi the Wall form of T (see spinor_norm), from the
    rows of 1 - T and the rows of G, or for a diagonal G its entries, as
    residues mod p (the result too) or, when p is None, Fractions."""
    n = len(one_minus)
    pivots, _ = row_reduce([row[:] for row in one_minus], n, p)
    k = len(pivots)
    if not k:
        return 1
    if isinstance(gram[0], list):
        chi = [[sum(one_minus[r][a] * gram[r][b] for r in range(n)) for b in pivots]
               for a in pivots]
    else:
        chi = [[one_minus[b][a] * gram[b] for b in pivots] for a in pivots]
    if p:
        chi = [[x % p for x in row] for row in chi]
    det = row_reduce(chi, k, p)[1] * (2 if k % 2 else 1)
    return det % p if p else det


def spinor_norm(t: Isometry) -> SquareClass:
    """theta(T) = 2^k det(chi) mod squares, chi the Wall form of T.

    W = im(1 - T) has dimension k and the basis y_c = (1 - T) e_c over the
    pivot columns c of 1 - T.  The Wall form chi(x, (1 - T) v) = <x, v>
    has there the Gram matrix chi(y_a, y_b) = <y_a, e_b> = ((1 - T)^t G)_ab
    (Zassenhaus, Arch. Math. 13, 1962; Taylor, The Geometry of the
    Classical Groups, Ch. 11), and for a diagonal G = diag(d) simply
    (1 - T)_ba d_b.  For a reflection in u it is 2<v,u>^2/<u,u>, so the
    factor 2^k makes theta the product of the mirror-norm classes of any
    Cartan-Dieudonne factorization, with no factorization made.  The
    value is wall_value's, on bare values; the census calls it directly.
    """
    space = t.space
    p = space.field.p
    one_minus = [[(i == j) - e.value for j, e in enumerate(row)]
                 for i, row in enumerate(t.matrix.rows)]
    if p:
        one_minus = [[x % p for x in row] for row in one_minus]
    gram = [[e.value for e in row] for row in space.gram.rows]
    return square_class(space.field(wall_value(one_minus, gram, p)))


def compose_reflections(space: QuadSpace, mirrors) -> Isometry:
    m = Mat.identity(space.field, space.dim)
    for v in reversed(mirrors):
        m = _reflect_matrix_left(space, v, m)
    return Isometry(space, m, check=False)


def random_isometry(space: QuadSpace, rng: random.Random,
                    max_mirrors: Optional[int] = None, special: bool = False,
                    height: int = 3) -> Isometry:
    """Random product of <= 2n reflections (even count if special)."""
    n = space.dim
    k = rng.randrange(0, (max_mirrors or 2 * n) + 1)
    if special and k % 2 == 1:
        k += 1
    mirrors = [space.random_anisotropic(rng, height) for _ in range(k)]
    return compose_reflections(space, mirrors)


def orthogonal_sum(a: QuadSpace, b: QuadSpace) -> QuadSpace:
    field = a.field
    z = field.zero()
    n, m = a.dim, b.dim
    rows = []
    for i in range(n):
        rows.append(list(a.gram.rows[i]) + [z] * m)
    for i in range(m):
        rows.append([z] * n + list(b.gram.rows[i]))
    return QuadSpace(field, Mat(field, rows))
