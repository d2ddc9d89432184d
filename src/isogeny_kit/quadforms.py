"""Quadratic spaces over F_p or Q: diagonalization, isotropy, Witt
decomposition, reflections, constructive Cartan-Dieudonne factorization,
and the spinor norm.

A space is a nondegenerate symmetric Gram matrix; vectors are coordinate
lists; isometries are matrices T with T^t G T = G.
"""

from __future__ import annotations

import itertools
import random
import warnings
from typing import List, Optional, Tuple

from .errors import (
    DegenerateSpace,
    DimensionMismatch,
    IsotropicMirror,
    NoIsotropicVector,
    SearchBudgetExceeded,
)
from .exactfield import FieldDesc, Scalar, SquareClass, sqrt_exact, square_class
from .linalg import Mat, independent_subset


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

    def pairing(self, u, v) -> Scalar:
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("vector does not conform to space")
        gv = self.gram.apply(v)
        acc = self.field.zero()
        for a, b in zip(u, gv):
            acc = acc + a * b
        return acc

    def vnorm(self, v) -> Scalar:
        return self.pairing(v, v)

    def basis_vector(self, i):
        return [self.field(1 if j == i else 0) for j in range(self.dim)]

    def zero_vector(self):
        return [self.field.zero()] * self.dim

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
        g = self.space.gram
        return self.matrix.T * g * self.matrix == g

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
    g = space.gram
    n = space.dim
    basis = [space.basis_vector(i) for i in range(n)]
    out_basis = []
    diag = []
    for _ in range(n):
        v = _anisotropic_in_span(space, basis)
        if v is None:
            raise DegenerateSpace("no anisotropic vector in complement")
        c = space.vnorm(v)
        out_basis.append(v)
        diag.append(c)
        new_basis = []
        for b in basis:
            w = _sub_vec(b, _scale_vec(space.pairing(b, v) / c, v))
            new_basis.append(w)
        basis = independent_subset(field, new_basis, len(basis) - 1)
    p = Mat(field, [[out_basis[j][i] for j in range(n)] for i in range(n)])
    space._diag_cache = (p, diag)
    return p, diag


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


def find_isotropic(space: QuadSpace, budget: int = 10,
                   warn_inconclusive: bool = True):
    """A nonzero isotropic vector, or None.

    F_p: exhaustive in dim <= 2, coordinate-slicing in dim >= 3 (always
    conclusive).  Q: certified None for definite forms and 2-dim forms of
    nonsquare discriminant; otherwise a height-bounded search that warns
    (dim <= 4) or raises SearchBudgetExceeded (dim >= 5) when exhausted.
    """
    field = space.field
    n = space.dim
    if n == 1:
        return None
    p_mat, diag = diagonalize(space)

    def back(coords):
        return p_mat.apply(coords)

    if field.p is not None:
        p = field.p
        if n == 2:
            for a in range(p):
                for b in range(p):
                    if a == 0 and b == 0:
                        continue
                    v = [field(a), field(b)]
                    if (diag[0] * v[0] * v[0] + diag[1] * v[1] * v[1]).is_zero():
                        return back(v + [field(0)] * (n - 2))
            return None
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
    if n == 2:
        if discriminant(space).is_trivial():
            d0, d1 = diag
            # x^2 = -d1/d0 has a rational root
            r = sqrt_exact(-d1 / d0)
            return back([r, field(1)])
        return None
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
        if warn_inconclusive:
            warnings.warn("isotropy search budget exhausted in dim %d; "
                          "form may be anisotropic" % n)
        return None
    raise SearchBudgetExceeded("no isotropic vector found within budget")


def split_hyperbolic(space: QuadSpace, budget: int = 10):
    """Split off a hyperbolic pair (e, f) with <e,f> = 1.

    Returns (e, f, complement QuadSpace, complement basis as vectors of
    the ambient space).
    """
    field = space.field
    e = find_isotropic(space, budget=budget, warn_inconclusive=False)
    if e is None:
        raise NoIsotropicVector("space is anisotropic (or search failed)")
    # partner with <e, f'> != 0
    f = None
    for i in range(space.dim):
        b = space.basis_vector(i)
        if not space.pairing(e, b).is_zero():
            f = b
            break
    f = _scale_vec(space.pairing(e, f).inverse(), f)
    f = _sub_vec(f, _scale_vec(space.vnorm(f) / field(2), e))
    # complement: project basis off span(e, f)
    comp = []
    for i in range(space.dim):
        b = space.basis_vector(i)
        w = _sub_vec(b, _scale_vec(space.pairing(b, f), e))
        w = _sub_vec(w, _scale_vec(space.pairing(w, e), f))
        comp.append(w)
    comp = independent_subset(field, comp, space.dim - 2)
    gram = Mat(field, [[space.pairing(u, v) for v in comp] for u in comp])
    sub = QuadSpace(field, gram) if comp else None
    return e, f, sub, comp


def witt_decompose(space: QuadSpace, budget: int = 10):
    """(Witt index r, anisotropic kernel or None, kernel basis in ambient coords)."""
    r = 0
    current = space
    embed = [space.basis_vector(i) for i in range(space.dim)]
    while current is not None:
        v = find_isotropic(current, budget=budget, warn_inconclusive=False)
        if v is None:
            break
        _, _, sub, comp = split_hyperbolic(current, budget=budget)
        r += 1
        embed_next = []
        for w in comp:
            amb = space.zero_vector()
            for c, b in zip(w, embed):
                amb = _add_vec(amb, _scale_vec(c, b))
            embed_next.append(amb)
        embed = embed_next
        current = sub
    return r, current, embed


def reflect(space: QuadSpace, v) -> Isometry:
    """The reflection inverting v: x -> x - 2<x,v>/|v|^2 v."""
    m = _reflect_matrix_left(space, v, Mat.identity(space.field, space.dim))
    return Isometry(space, m, check=False)


def _reflect_matrix_left(space: QuadSpace, v, m: Mat) -> Mat:
    """R_v * M as a rank-one update: M - v (2/|v|^2) (v^t G M)."""
    c = space.vnorm(v)
    if c.is_zero():
        raise IsotropicMirror("mirror vector is isotropic")
    n = space.dim
    gv = space.gram.apply(v)
    factor = space.field(2) / c
    s = []
    for j in range(n):
        acc = space.field.zero()
        for i in range(n):
            acc = acc + gv[i] * m.rows[i][j]
        s.append(acc * factor)
    rows = [[m.rows[i][j] - v[i] * s[j] for j in range(n)] for i in range(n)]
    return Mat(space.field, rows)


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
        dspace = space if trivial else QuadSpace(field, p_mat.T * space.gram * p_mat)
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
        raise ValueError("factorization failed to reach identity")
    # R_{v_last} ... R_{v_first} T = 1, so T = R_{v_first}^-1 ... = product
    # of the same reflections in recorded order (each is an involution).
    if trivial:
        return mirrors_d
    return [p_mat.apply(v) for v in mirrors_d]


def spinor_norm(t: Isometry) -> SquareClass:
    """Product of the mirror-norm square classes of a CDT factorization."""
    mirrors = cartan_dieudonne(t)
    cls = SquareClass(t.space.field, 1)
    for v in mirrors:
        cls = cls * square_class(t.space.vnorm(v))
    return cls


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


def hyperbolic_plane(field: FieldDesc) -> QuadSpace:
    return QuadSpace(field, [[0, 1], [1, 0]])


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
