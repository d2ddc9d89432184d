"""Quadratic spaces over F_p or Q: orthogonal complements, diagonalization,
isotropy, Witt decomposition, reflections, constructive Cartan-Dieudonne
factorization, and the spinor norm (from the Wall form, with no
factorization).

A space is a nondegenerate symmetric Gram matrix, held once as ints
(residues mod p, or over Q numerators over one square denominator) that
every pairing, norm, complement, isotropy search, reflection and form
check reads; vectors are coordinate lists of Scalars, unwrapped once per
call.  Both conversions are exactfield's int view: `FieldDesc.ints` turns
Scalars into ints over one denominator and `FieldDesc.scalars` turns each
result back, so every formula here has one path for F_p and Q.
Isometries are matrices T with T^t G T = G.
"""

from __future__ import annotations

import itertools
import math
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
from .exactfield import FieldDesc, Scalar, SquareClass, sqrt_exact, square_class
from .linalg import Mat, independent_subset, row_reduce


class QuadSpace:
    """Nondegenerate quadratic space given by a symmetric Gram matrix.

    The form is built once as ints: the Gram rows `_rows` (and `_diag`, for
    a diagonal Gram matrix) over the denominator `_den`, 1 over F_p; `gram`
    and `diag` are their read-only Scalar views."""

    def __init__(self, field: FieldDesc, gram):
        self.field = field
        if isinstance(gram, Mat):
            self.gram = gram
        else:
            self.gram = Mat(field, [[field(e) for e in row] for row in gram])
        self.dim = n = self.gram.nrows
        self._p = p = field.p
        # over the square of the lcm L of the denominators (1 over F_p), so
        # that a k x k block's determinant is off by the square L^2k only
        flat, lcm = field.ints([e for row in self.gram.rows for e in row])
        self._den, flat = lcm * lcm, iter(flat)
        rows = [[next(flat) * lcm for _ in row] for row in self.gram.rows]
        if [list(c) for c in zip(*rows)] != rows:
            raise ValueError("Gram matrix is not symmetric")
        if not row_reduce([row[:] for row in rows], n, p)[1]:
            raise DegenerateSpace("Gram matrix is singular")
        self._rows = rows
        diagonal = all(not rows[i][j] for i in range(n) for j in range(n) if i != j)
        # G v in O(n) for a diagonal Gram matrix; diag is None otherwise
        self._diag = [rows[i][i] for i in range(n)] if diagonal else None
        self.diag = [self.gram.rows[i][i] for i in range(n)] if diagonal else None

    @classmethod
    def diagonal(cls, field: FieldDesc, entries):
        entries = [field(e) for e in entries]
        z = field.zero()
        return cls(field, Mat(field, [[entries[i] if i == j else z
                                       for j in range(len(entries))]
                                      for i in range(len(entries))]))

    def __repr__(self):
        return "QuadSpace(%r, %s)" % (self.field, self.gram.rows)

    def _ints(self, v):
        """The Scalar vector v as (ints, d) with v = ints / d: residues mod
        p and d = 1, or over Q numerators over their lcm d."""
        if len(v) != self.dim:
            raise DimensionMismatch("vector does not conform to space")
        f = self.field
        if any(type(x) is not Scalar or x.field is not f for x in v):
            v = [f(x) for x in v]       # ints and Fractions, or FieldMismatch
        return f.ints(v)

    def _gv(self, x):
        """The int form times the int vector x (not reduced mod p)."""
        if self._diag is not None:
            return list(map(mul, self._diag, x))
        return [sum(map(mul, row, x)) for row in self._rows]

    def pairing(self, u, v) -> Scalar:
        x, dx = self._ints(u)
        y, dy = self._ints(v)
        return self.field.scalars([sum(map(mul, x, self._gv(y)))], dx * dy * self._den)[0]

    def vnorm(self, v) -> Scalar:
        x, d = self._ints(v)
        return self.field.scalars([sum(map(mul, x, self._gv(x)))], d * d * self._den)[0]

    def basis_vector(self, i):
        z, o = self.field.zero(), self.field.one()
        return [o if j == i else z for j in range(self.dim)]

    def restrict(self, basis) -> "QuadSpace":
        """The subspace spanned by `basis`, with the Gram matrix of its
        pairings (DegenerateSpace when that is singular)."""
        vecs = [self._ints(b) for b in basis]
        gvs = [self._gv(x) for x, _ in vecs]
        scalars = self.field.scalars
        return QuadSpace(self.field, Mat(self.field, [
            [scalars([sum(map(mul, x, g))], d * e * self._den)[0]
             for g, (_, e) in zip(gvs, vecs)] for x, d in vecs]))

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
        """T^t G T == G, on the space's int form: T_i . (G T_j) against
        G_ij for i <= j, each column T_i of T as ints over one denominator."""
        space, t = self.space, self.matrix
        n, p = space.dim, space._p
        if t.ring != space.field or t.nrows != n or t.ncols != n:
            return t.T * space.gram * t == space.gram
        cols = [space._ints(c) for c in zip(*t.rows)]
        for j, (cj, dj) in enumerate(cols):
            gcj = space._gv(cj)
            for i in range(j + 1):
                ci, di = cols[i]
                s = sum(map(mul, ci, gcj)) - space._rows[i][j] * di * dj
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

    def __repr__(self):
        return "Isometry(%s)" % self.matrix.rows


def diagonalize(space: QuadSpace) -> Tuple[Mat, List[Scalar]]:
    """Basis change P with P^t G P diagonal (nonzero entries).

    Symmetric Gauss pivoting; uses v with |v|^2 != 0, which exists for a
    nondegenerate form in characteristic != 2.  Cached per space.
    """
    if getattr(space, "_diag_cache", None) is None:
        basis = [space.basis_vector(i) for i in range(space.dim)]
        out_basis, diag = [], []
        for _ in range(space.dim):
            v = _anisotropic_in_span(space, basis)
            if v is None:
                raise DegenerateSpace("no anisotropic vector in complement")
            out_basis.append(v)
            diag.append(space.vnorm(v))
            basis = complement(space, v, basis)
        space._diag_cache = (Mat(space.field, out_basis).T, diag,
                             space.field.ints(diag)[0])
    return space._diag_cache[:2]


def diagonal_ints(space: QuadSpace) -> Tuple[List[int], Mat]:
    """(d, P): the diagonal of diagonalize(space) as ints, residues mod p
    or over Q the entries times one positive integer, and its basis P."""
    p_mat, _ = diagonalize(space)
    return space._diag_cache[2], p_mat


def complement(space: QuadSpace, v, basis=None):
    """A basis of the orthogonal complement of the anisotropic v inside
    span(basis) (the whole space by default): each basis vector projected
    off v, keeping the first len(basis) - 1 independent ones.

    On ints, with v = x / dx and b = y / dy: b - (<b,v>/<v,v>) v is
    (c y - t x) / (dy c) for c = x.Gx and t = y.Gx, so dx drops out; an
    isotropic v makes dy c zero in the field, and scalars raises
    DivisionByZero."""
    if basis is None:
        basis = [space.basis_vector(i) for i in range(space.dim)]
    field = space.field
    x, _ = space._ints(v)
    gx = space._gv(x)
    c = sum(map(mul, x, gx))
    projected = []
    for y, dy in map(space._ints, basis):
        t = sum(map(mul, y, gx))
        projected.append(field.scalars([c * a - t * b for a, b in zip(y, x)], dy * c))
    return independent_subset(field, projected, len(basis) - 1)


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


def _anisotropic_in_span(space: QuadSpace, basis):
    """Anisotropic vector in the span of `basis` (chars != 2 guarantee):
    a basis vector, else u + v for the first pair with <u, v> != 0, since
    |u + v|^2 = 2 <u, v> once every basis vector is isotropic."""
    p = space._p
    xs = [space._ints(b)[0] for b in basis]
    gxs = list(map(space._gv, xs))

    def nonzero(n):
        return n % p if p else n
    for v, x, gx in zip(basis, xs, gxs):
        if nonzero(sum(map(mul, x, gx))):
            return v
    for i, j in itertools.combinations(range(len(basis)), 2):
        if nonzero(sum(map(mul, xs[i], gxs[j]))):
            return _add_vec(basis[i], basis[j])
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
    d, p_mat = diagonal_ints(space)

    def back(coords):
        return p_mat.apply(coords)

    if n == 2:
        if field.p is not None:
            r = sqrt_exact(field.scalars([-d[0]], d[1])[0])
            return None if r is None else back([field(1), r])
        r = sqrt_exact(field.scalars([-d[1]], d[0])[0])
        return None if r is None else back([r, field(1)])
    if field.p is not None:
        p = field.p
        # dim >= 3: slice over the first two coordinates
        inv = pow(d[2], -1, p)
        for a in range(p):
            for b in range(p):
                c = sqrt_exact(Scalar(field, -(d[0] * a * a + d[1] * b * b) * inv % p))
                if c is None or (a == 0 and b == 0 and c.is_zero()):
                    continue
                v = [field(a), field(b), c] + [field(0)] * (n - 3)
                return back(v)
        return None

    # Q: certificates first
    if all(e > 0 for e in d) or all(e < 0 for e in d):
        return None  # definite

    def isotropic(support, coords):
        return any(coords) and not sum(d[i] * c * c for i, c in zip(support, coords))

    rng_range = range(-budget, budget + 1)
    # sparse supports first: keeps high dimensions tractable
    for support_size in (2, 3):
        if support_size > n:
            break
        for support in itertools.combinations(range(n), support_size):
            for vals in itertools.product(rng_range, repeat=support_size):
                if isotropic(support, vals):
                    v = [field(0)] * n
                    for idx, c in zip(support, vals):
                        v[idx] = field(c)
                    return back(v)
    if n <= 4:
        for coords in itertools.product(rng_range, repeat=n):
            if isotropic(range(n), coords):
                return back([field(c) for c in coords])
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
    return compose_reflections(space, [v])


def _reflect_ints(space: QuadSpace, x, ys, e):
    """R_v (Y / e) on the int view, for the mirror v = x / d and the rows
    ys of Y (e is 1 over F_p): the rank-one update (c Y - x S) / (c e) for
    c = x.Gx and S = 2 (Gx)^t Y, so d drops out.  S sums over the nonzero
    entries of G x only, and the rows where x is 0 keep their values.
    Returns (rows, denominator): residues over 1 over F_p, and over Q with
    the gcd of the entries and the denominator divided out."""
    p = space._p
    gx = space._gv(x)
    c = sum(map(mul, x, gx))
    if not (c % p if p else c):
        raise IsotropicMirror("mirror vector is isotropic")
    s = [0] * len(ys[0])
    for g, y in zip(gx, ys):
        if g:
            s = [t + g * a for t, a in zip(s, y)]
    if p:
        f = 2 * pow(c, -1, p)
        s = [t * f % p for t in s]
        return [[(a - b * t) % p for a, t in zip(y, s)] if b else y
                for b, y in zip(x, ys)], 1
    rows = [[c * a - 2 * b * t for a, t in zip(y, s)] if b else [c * a for a in y]
            for b, y in zip(x, ys)]
    d = c * e
    g = math.gcd(d, *itertools.chain.from_iterable(rows))
    g = -g if d < 0 else g
    return [[a // g for a in row] for row in rows], d // g


def _reflect_matrix_left(space: QuadSpace, v, m: Mat) -> Mat:
    """R_v * M: `_reflect_ints` on M's entries as ints over one
    denominator, wrapped back row by row; the rows where v is 0 keep
    their Scalars."""
    f = space.field
    n = m.ncols
    x, _ = space._ints(v)
    flat, e = f.ints([z for row in m.rows for z in row])
    ys, e = _reflect_ints(space, x, [flat[i:i + n] for i in range(0, len(flat), n)], e)
    return Mat(f, [f.scalars(y, e) if b else row for b, y, row in zip(x, ys, m.rows)])


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
        if w == e:
            continue
        u = _sub_vec(w, e)
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
    residues mod p (the result too) or, when p is None, ints."""
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
    p, n = space._p, space.dim
    flat, d = space.field.ints([e for row in t.matrix.rows for e in row])
    one_minus = [[d * (i == j) - flat[n * i + j] for j in range(n)] for i in range(n)]
    form = space._rows if space._diag is None else space._diag
    if p:
        one_minus = [[x % p for x in row] for row in one_minus]
    elif d != 1:
        # 1 - T over d: with the form times d too, chi and so det(chi)
        # move by the square d^2k
        form = [[g * d for g in row] for row in form] if space._diag is None \
            else [g * d for g in form]
    # over Q the int form is G times a square: det(chi) moves by a square
    return square_class(space.field(wall_value(one_minus, form, p)))


def compose_reflections(space: QuadSpace, mirrors) -> Isometry:
    """R_{v_1} ... R_{v_k}, the mirrors applied to one int state from the
    last to the first and wrapped into one Mat."""
    f, n = space.field, space.dim
    ys, e = [[int(i == j) for j in range(n)] for i in range(n)], 1
    for v in reversed(mirrors):
        ys, e = _reflect_ints(space, space._ints(v)[0], ys, e)
    return Isometry(space, Mat(f, [f.scalars(y, e) for y in ys]), check=False)


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
