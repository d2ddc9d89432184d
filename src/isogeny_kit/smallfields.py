"""Quadratically finite fields F_p: form classification with explicit
isometries, the index of the spinor-norm kernel, norm surjectivity of the
quadratic extension, and the small-field group census with classical
cardinality cross-checks.

Enumeration internals run on raw ints mod p for speed; results are exact
counts, with orbit-stabilizer recursion replacing matrix enumeration in
dimensions 5 and 6.  Isometries are enumerated column by column in the
diagonal model: each remaining column keeps a pool, a bitset over the
indexed sphere vectors, and choosing a column cuts every later pool with
one `&` against that column's orthogonality bitset.  Each level carries
the minors of its columns, so the last column, one of a pair {w, -w},
gets its determinant as one dot product and -w the negation; below the
first column, the subtree under -v is replayed from its sign twin v's.
The census takes each spinor norm from the int columns by
quadforms.wall_value, with no Mat per isometry.  A failed count
cross-check raises InvariantViolated.
"""

from __future__ import annotations

import itertools
from operator import mul
from typing import Dict, List, Optional, Tuple

from .algebras import EtaleQuad
from .errors import BadParameters, BudgetExceeded, InvariantViolated
from .exactfield import FieldDesc, Scalar, SquareClass, square_class
from .linalg import Mat, row_reduce
from .quadforms import (
    Isometry,
    QuadSpace,
    complement,
    diagonal_ints,
    discriminant,
    reflect,
    spinor_norm,
    to_ambient,
    wall_value,
)

EXHAUSTIVE_LIMIT = 200_000  # largest |O(V)| enumerated element by element
# the census recomputes the determinant of every DET_CHECK_STRIDE-th
# enumerated item from its columns (about 1% of a pass); in census(p, 4),
# p = 3, 5, 7, this stride lands on replayed sign-twin items
DET_CHECK_STRIDE = 499


def classify_form(space: QuadSpace) -> Tuple[int, SquareClass]:
    """(dimension, discriminant class): a complete invariant over F_p."""
    return space.dim, discriminant(space)


def _norm_int(diag: List[int], v: Tuple[int, ...], p: int) -> int:
    return sum(d * x * x for d, x in zip(diag, v)) % p


def _vectors_of_norm(diag: List[int], c: int, p: int):
    for v in itertools.product(range(p), repeat=len(diag)):
        if any(v) and _norm_int(diag, v, p) == c % p:
            yield v


def explicit_isometry(a: QuadSpace, b: QuadSpace) -> Optional[Mat]:
    """Matrix P with P^t G_b P = G_a, or None when the invariants differ.

    Constructive version of the dimension-and-discriminant classification:
    repeatedly transport a norm-matched vector and recurse on complements.
    """
    field = a.field
    if classify_form(a) != classify_form(b):
        return None
    diag_a, pa = diagonal_ints(a)
    cols_in_b = _match_diagonal(b, diag_a)
    if cols_in_b is None:
        return None
    # columns express the image of a's diagonalizing basis inside b
    m_cols = Mat(field, cols_in_b).T
    out = m_cols * pa.inverse()
    if out.T * b.gram * out != a.gram:
        raise InvariantViolated("explicit isometry failed")
    return out


def _match_diagonal(b: QuadSpace, diag_a: List[int]) -> Optional[List[List[Scalar]]]:
    """Vectors w_k in b, pairwise orthogonal, with |w_k|^2 = diag_a[k]."""
    field = b.field
    p = field.p
    current = b
    basis = [b.basis_vector(i) for i in range(b.dim)]   # of current, in b
    out = []
    for c in diag_a:
        diag_c, p_mat = diagonal_ints(current)
        found = None
        for v in _vectors_of_norm(diag_c, c, p):
            found = to_ambient(p_mat.apply([field(x) for x in v]), basis)
            break
        if found is None:
            return None
        out.append(found)
        if current.dim == 1:
            break
        basis = complement(b, found, basis)
        current = b.restrict(basis)
    return out


def so_plus_index(space: QuadSpace) -> Tuple[int, Optional[Isometry]]:
    """Index of SO^+ in SO with a nontrivial-spinor witness (dim > 1)."""
    if space.dim == 1:
        return 1, None
    field = space.field
    p = field.p
    diag, p_mat = diagonal_ints(space)
    first = {}      # square class -> the first vector with a norm in it
    for v in itertools.product(range(p), repeat=space.dim):
        n = _norm_int(diag, v, p)
        if n:
            first.setdefault(square_class(field(n)).rep, v)
            if len(first) == 2:
                break
    if len(first) != 2:
        raise InvariantViolated("a square class of nonzero norms does not occur")
    w1 = p_mat.apply([field(x) for x in first[1]])
    w2 = p_mat.apply([field(x) for x in first[field.least_nonresidue().value]])
    witness = Isometry(space, reflect(space, w1).matrix * reflect(space, w2).matrix,
                       check=False)
    if spinor_norm(witness).is_trivial():
        raise InvariantViolated("SO+ index witness has trivial spinor norm")
    return 2, witness


def norm_surjectivity(e: EtaleQuad) -> Dict[int, object]:
    """Witness preimages showing N: E^x -> F^x is onto (field extensions)."""
    field = e.field
    witnesses = {}
    for z in e.elements():
        n = z.norm()
        if n.is_zero():
            continue
        witnesses.setdefault(n.value, z)
        if len(witnesses) == field.p - 1:
            break
    if len(witnesses) != field.p - 1:
        raise InvariantViolated("norm map missed a class")
    return witnesses


# ---------------------------------------------------------------------------
# group sizes
# ---------------------------------------------------------------------------

def orthogonal_order(diag: List[int], p: int) -> int:
    """|O(V)| by orbit-stabilizer: |O| = N(d_1) |O(d_2, ..., d_n)|, with
    N(c) the vectors of norm c.  The norm counts on diag[k:] are those on
    diag[k+1:] convolved with the counts of d_k x^2: O(n p^2), not p^n."""
    order, counts = 1, [1] + [0] * (p - 1)
    for d in reversed(diag):
        counts = [sum(counts[(c - d * x * x) % p] for x in range(p)) for c in range(p)]
        order *= counts[d % p]
    return order


def _sphere_index(diag: List[int], p: int):
    """The vectors whose norm is an entry of diag, in itertools.product
    order, and per such norm the bitset of their indices."""
    spheres = {d % p: 0 for d in diag}
    vecs = []
    for v in itertools.product(range(p), repeat=len(diag)):
        c = _norm_int(diag, v, p)
        if c in spheres and any(v):
            spheres[c] |= 1 << len(vecs)
            vecs.append(v)
    return vecs, spheres


def _orthogonal_masks(diag: List[int], p: int, vecs):
    """orth(i): the bitset of the vectors of `vecs` orthogonal to vecs[i].

    A hyperplane sum_k a_k w_k = 0 is built coordinate by coordinate from
    the bitsets of partial sums, so a mask costs n p^2 bitset operations,
    not one pairing per vector; masks are made on first use."""
    full = (1 << len(vecs)) - 1
    coord = [[0] * p for _ in diag]
    for i, v in enumerate(vecs):
        for k, x in enumerate(v):
            coord[k][x] |= 1 << i
    cache = {}

    def orth(i):
        mask = cache.get(i)
        if mask is None:
            partial = {0: full}     # partial sum -> vectors reaching it
            for k, (d, x) in enumerate(zip(diag, vecs[i])):
                a = d * x % p
                if not a:
                    continue
                nxt = {}
                for t, m in partial.items():
                    for y in range(p):
                        u = (t + a * y) % p
                        nxt[u] = nxt.get(u, 0) | (m & coord[k][y])
                partial = nxt
            mask = cache[i] = partial.get(0, 0)
        return mask
    return orth


def _laplace_plans(n: int):
    """plans[m - 1], m = 1 .. n - 1: per m-row subset T (combinations
    order) and per row r, the term (sign, j) of row r when the minor of the
    first m columns on T is expanded along column m, j the place of T - r;
    (0, 0) off T.  A minor is kept times (-1)^(its place), so the last
    level holds the cofactors of rows n - 1, ..., 0, and
    det(cols, w) = sum_k cof[k] w[n - 1 - k]."""
    plans, index = [], {(): 0}
    for m in range(1, n):
        subsets = list(itertools.combinations(range(n), m))
        plans.append([])
        for place, rows in enumerate(subsets):
            terms = [(0, 0)] * n
            for k, r in enumerate(rows):
                j = index[rows[:k] + rows[k + 1:]]
                terms[r] = ((-1) ** (k + m - 1 + j + place), j)
            plans[-1].append(terms)
        index = {rows: place for place, rows in enumerate(subsets)}
    return plans


def _replay(items, col, w, p):
    """The (cols, det) items under a column's sign twin w, from the items
    under the column -w: column `col` set to w and each det negated."""
    for cols, det in items:
        yield cols[:col] + (w,) + cols[col + 1:], -det % p


def enumerate_isometry_columns(diag: List[int], p: int):
    """(cols, det) for every isometry of diag: the column tuple (ints,
    diagonal model) and its determinant mod p.

    The sphere vectors of the norms in diag are indexed once, with one
    orthogonality bitset per vector; column k draws from a pool (a bitset)
    of vectors of norm diag[k] orthogonal to the columns chosen so far,
    read lowest bit first, so tuples come in itertools.product order.  The
    complement of n - 1 orthogonal anisotropic columns is a nondegenerate
    line, so the last pool is exactly {w, -w}; anything else raises
    InvariantViolated.  Each level carries the minors of its columns on
    every row subset, each one Laplace step from its parent's, so the
    signed cofactors of the first n - 1 columns give det(cols, w) as one
    n-term dot product, and det(cols, -w) = -det(cols, w).  Pools are
    closed under v -> -v and orth(-v) = orth(v), so below the first column
    v keeps its subtree's items when its sign twin -v comes later, and -v
    replays them (_replay); first-column subtrees are not kept, as that
    would hold a large share of O(V) at once.  |O(V)| is the product of
    the pool sizes along the first branch (orbit-stabilizer), checked
    against EXHAUSTIVE_LIMIT before anything is yielded.
    """
    vecs, spheres = _sphere_index(diag, p)
    orth = _orthogonal_masks(diag, p, vecs)
    first = [spheres[d % p] for d in diag]
    total = 1
    pools = first
    while pools:
        total *= pools[0].bit_count()
        i = (pools[0] & -pools[0]).bit_length() - 1
        pools = [q & orth(i) for q in pools[1:]]
    if total > EXHAUSTIVE_LIMIT:
        raise BudgetExceeded("|O(V)| = %d exceeds the enumeration limit" % total)
    plans = _laplace_plans(len(diag))
    where = {v: i for i, v in enumerate(vecs)}
    neg = [where[tuple(-x % p for x in v)] for v in vecs]

    def pair(cols, cof, pool):
        # the last column's two items, from the cofactors of cols
        low = pool & -pool
        i = low.bit_length() - 1
        if not low or pool != low | 1 << neg[i]:
            raise InvariantViolated("last column pool after %r is not {w, -w}" % (cols,))
        w = vecs[i]
        det = sum(map(mul, cof, reversed(w))) % p
        return (cols + (w,), det), (cols + (vecs[neg[i]],), -det % p)

    def rec(cols, minors, pools):
        # pools[k]: candidates for column len(cols) + k, orthogonal to cols;
        # minors: those of cols, as plans[len(cols) - 1] lists them
        pool, rest = pools[0], pools[1:]
        # the expansion along the next column as a matrix, one row per
        # subset, so each candidate's minors are C-level dot products
        expand = [[s * minors[j] for s, j in terms] for terms in plans[len(cols)]]
        col = len(cols)
        kept = {}   # index of -v -> the items under v, until -v comes up
        while pool:
            low = pool & -pool
            pool ^= low
            i = low.bit_length() - 1
            v = vecs[i]
            if i in kept:
                yield from _replay(kept.pop(i), col, v, p)
                continue
            sub = [sum(map(mul, row, v)) for row in expand]
            o = orth(i)
            if len(rest) > 1:
                items = rec(cols + (v,), sub, [q & o for q in rest])
            else:
                items = pair(cols + (v,), sub, rest[0] & o)
            if col and neg[i] > i:
                items = kept[neg[i]] = list(items)
            yield from items

    if len(diag) == 1:
        yield from pair((), [1], first[0])
    else:
        yield from rec((), [1], first)


def enumerate_isometries(space: QuadSpace):
    """All isometries of a space over F_p (Gram-constrained backtracking)."""
    field = space.field
    p = field.p
    diag, p_mat = diagonal_ints(space)
    p_inv = p_mat.inverse()
    for cols, _det in enumerate_isometry_columns(diag, p):
        m = Mat(field, [map(field, c) for c in cols]).T
        yield Isometry(space, p_mat * m * p_inv, check=False)


# ---------------------------------------------------------------------------
# the census
# ---------------------------------------------------------------------------

CLASSICAL = {
    # dim, disc trivial? -> |SO| formula and identification text
    (2, True): (lambda q: q - 1, "SO ~ F^x (split torus); Gspin = F^x x F^x"),
    (2, False): (lambda q: q + 1, "SO ~ E^1 = U_E(1); Gspin = E^x"),
    (3, None): (lambda q: q * (q * q - 1),
                "SO = PGL_2(F); SO+ = PSL_2(F); spin = SL_2(F)"),
    (4, True): (lambda q: q * q * (q * q - 1) ** 2,
                "spin = SL_2(F) x SL_2(F); Gspin = equal-determinant pairs"),
    (4, False): (lambda q: q * q * (q ** 4 - 1),
                 "spin = SL_2(E); SO+ = PSL_2(E)"),
    (5, None): (lambda q: q ** 4 * (q * q - 1) * (q ** 4 - 1),
                "SO = PGSp_4(F); SO+ = PSp_4(F); spin = Sp_4(F)"),
    (6, True): (lambda q: q ** 6 * (q ** 3 - 1) * (q * q - 1) * (q ** 4 - 1),
                "spin = SL_4(F); Gspin = GL_4 with square determinant"),
    (6, False): (lambda q: q ** 6 * (q ** 3 + 1) * (q * q - 1) * (q ** 4 - 1),
                 "spin = SU_E(4); Gspin = GSU_E(4)"),
}


class CensusRow:
    __slots__ = ("dim", "disc_rep", "so", "so_plus", "identification", "method")

    def __init__(self, dim, disc_rep, so, so_plus, identification, method):
        self.dim = dim
        self.disc_rep = disc_rep
        self.so = so
        self.so_plus = so_plus
        self.identification = identification
        self.method = method

    def to_json(self):
        return {"dim": self.dim, "disc": self.disc_rep, "SO": self.so,
                "SO+": self.so_plus, "identified_as": self.identification,
                "method": self.method}


class CensusReport:
    def __init__(self, p: int, rows: List[CensusRow]):
        self.p = p
        self.rows = rows

    def to_json(self):
        return {"field": "p=%d" % self.p, "rows": [r.to_json() for r in self.rows]}

    def table(self) -> str:
        lines = ["census over F_%d" % self.p,
                 "%4s %6s %10s %10s  %s" % ("dim", "disc", "|SO|", "|SO+|", "identification")]
        for r in self.rows:
            lines.append("%4d %6s %10d %10d  %s"
                         % (r.dim, r.disc_rep, r.so, r.so_plus, r.identification))
        return "\n".join(lines)


def census_space(field: FieldDesc, dim: int, trivial_disc: bool) -> QuadSpace:
    """Diagonal representative with the requested discriminant class."""
    sign = field(-1) ** (dim * (dim - 1) // 2)
    want = field(1) if trivial_disc else field.least_nonresidue()
    last = want * sign  # disc(diag(1,..,1,last)) = last * sign
    return QuadSpace.diagonal(field, [field(1)] * (dim - 1) + [last])


def census(p: int, max_dim: int = 6) -> CensusReport:
    """|SO| and |SO+| per (dim, disc) with classical cross-checks.

    |O| comes from orthogonal_order once per row and |SO| = |O| / 2.
    Dimensions <= 4 are enumerated exhaustively when |O| is small enough:
    the enumerator's (cols, det) items are counted against |O|, those of
    det 1 against |SO|; 5 and 6 use the orbit-stabilizer recursion.  |SO+|
    is exhausted by spinor filtering on small groups and halved via the
    index-2 witness otherwise.  The filter takes the spinor norm of each
    det-1 isometry from its int columns and the diagonal by wall_value
    (the core of spinor_norm), a square residue meaning trivial: no Mat,
    Isometry or Scalar is built per isometry.  Every DET_CHECK_STRIDE-th
    item's determinant is recomputed by row_reduce, so an enumerator that
    replays a sign twin wrongly raises InvariantViolated.
    """
    if p > 7:
        raise BudgetExceeded("census supports p <= 7")
    if p not in (3, 5, 7):
        raise BadParameters("census runs over an odd prime field, not p = %d" % p)
    top = max(dim for dim, _ in CLASSICAL)
    if not 1 <= max_dim <= top:
        raise BadParameters("census covers dimensions 1-%d, not %d" % (top, max_dim))
    field = FieldDesc(p)
    squares = {x * x % p for x in range(1, p)}
    rows = []
    for dim in range(1, max_dim + 1):
        disc_options = [True] if dim % 2 == 1 else [True, False]
        if dim == 1:
            rows.append(CensusRow(1, "1", 1, 1,
                                  "SO(1) = {1}; spin = {+-1}", "trivial"))
            continue
        for trivial in disc_options:
            space = census_space(field, dim, trivial)
            diag, _ = diagonal_ints(space)
            order = orthogonal_order(diag, p)
            so = order // 2
            method = "orbit-stabilizer"
            so_plus = None
            if dim <= 4 and order <= EXHAUSTIVE_LIMIT:
                method = "exhaustive"
                filter_spinor = so <= 2000
                count = count_so = count_plus = 0
                due = DET_CHECK_STRIDE
                for cols, det in enumerate_isometry_columns(diag, p):
                    count += 1
                    if count == due:
                        due += DET_CHECK_STRIDE
                        found = row_reduce([list(c) for c in cols], dim, p)[1]
                        if found != det:
                            raise InvariantViolated(
                                "isometry %d, columns %r: det %d, enumerated as %d"
                                % (count, cols, found, det))
                    if det == 1:
                        count_so += 1
                        if filter_spinor:
                            # the rows of 1 - T, whose columns are cols
                            one_minus = [[((i == j) - x) % p for j, x in enumerate(row)]
                                         for i, row in enumerate(zip(*cols))]
                            if wall_value(one_minus, diag, p) in squares:
                                count_plus += 1
                if count != order:
                    raise InvariantViolated("enumerated %d isometries, |O| = %d"
                                            % (count, order))
                if count_so != so:
                    raise InvariantViolated("enumerated %d of det 1, |SO| = %d"
                                            % (count_so, so))
                if filter_spinor:
                    so_plus = count_plus
                    if so_plus * 2 != so:
                        raise InvariantViolated("SO+ index is not 2")
            if so_plus is None:
                idx, _w = so_plus_index(space)
                if idx != 2:
                    raise InvariantViolated("SO+ index is %d, not 2" % idx)
                so_plus = so // 2
            key = (dim, None) if dim % 2 == 1 else (dim, trivial)
            formula, ident = CLASSICAL[key]
            if so != formula(p):
                raise InvariantViolated(
                    "|SO| = %d, classical order %d (dim %d, trivial disc %s)"
                    % (so, formula(p), dim, trivial))
            disc_rep = "1" if trivial else str(field.least_nonresidue().value)
            rows.append(CensusRow(dim, disc_rep, so, so_plus, ident, method))
    return CensusReport(p, rows)


EUCLIDEAN_NOTE = """\
Euclidean base fields (ordered, positive = square) are documented only;
no machine checking is done over them (no exact arithmetic model here):
  - the unique quadratic extension E = F(sqrt(-1)) is quadratically closed;
  - N_E(E^x) = (F^x)^2 and the (-1,-1) quaternions are a division algebra
    with norm group (F^x)^2;
  - quadratic spaces are classified by signature (p, q);
  - SO+(V) = SO(V) exactly for definite V, index 2 otherwise.
"""
