"""Exterior squares of rank-4 spaces: the equivalence with antisymmetric
4x4 matrices under g T g^t, the Pfaffian pairing, and the explicit
F-subspaces of Lambda^2 over quadratic towers on which the quaternionic
groups act as spin groups.
"""

from __future__ import annotations

from typing import List, Sequence

from .algebras import BiquatAlg, BiquatElem, biquat_to_mat4
from .errors import BadParameters, NotAntisymmetric
from .exactfield import FieldDesc, is_square
from .linalg import Mat, kron
from .quadforms import QuadSpace
from .towers import QuadTower, TowerElem

# basis order for Lambda^2: e_i ^ e_j with i < j (0-indexed)
WEDGE_INDEX = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_POS = {ij: n for n, ij in enumerate(WEDGE_INDEX)}
# complementary pair and sign: e_ij ^ e_kl = sign * e_0123
_COMPL = {
    (0, 1): ((2, 3), 1),
    (0, 2): ((1, 3), -1),
    (0, 3): ((1, 2), 1),
    (1, 2): ((0, 3), 1),
    (1, 3): ((0, 2), -1),
    (2, 3): ((0, 1), 1),
}
# kron(c, b) is kron(b, c) with rows and columns in this order
_FACTOR_SWAP = (0, 2, 1, 3)


def wedge_pairing(ring, u: Sequence, w: Sequence):
    """Coefficient of e1^e2^e3^e4 in u ^ w (symmetric bilinear)."""
    acc = ring.zero()
    for n, ij in enumerate(WEDGE_INDEX):
        kl, sign = _COMPL[ij]
        term = u[n] * w[_POS[kl]]
        acc = acc + (term if sign == 1 else -term)
    return acc


def wedge_to_antisym(ring, u: Sequence) -> Mat:
    """e_i ^ e_j -> E_ij - E_ji."""
    z = ring.zero()
    t = [[z for _ in range(4)] for _ in range(4)]
    for n, (i, j) in enumerate(WEDGE_INDEX):
        t[i][j] = u[n]
        t[j][i] = -u[n]
    return Mat(ring, t)


def antisym_to_wedge(m: Mat) -> List:
    if m.T != -m:
        raise NotAntisymmetric("matrix is not antisymmetric")
    return [m[i, j] for (i, j) in WEDGE_INDEX]


def pfaffian(m: Mat):
    """pf of a 4x4 antisymmetric matrix: t01 t23 - t02 t13 + t03 t12."""
    if m.nrows != 4 or m.ncols != 4:
        raise NotAntisymmetric("expects a 4x4 matrix")
    if m.T != -m:
        raise NotAntisymmetric("matrix is not antisymmetric")
    return m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]


def lambda2_matrix(g: Mat) -> Mat:
    """The 6x6 matrix of Lambda^2 g on the wedge basis."""
    cols = []
    for (i, j) in WEDGE_INDEX:
        col = []
        for (k, l) in WEDGE_INDEX:
            col.append(g[k, i] * g[l, j] - g[k, j] * g[l, i])
        cols.append(col)
    return Mat(g.ring, cols).T


def wedge_space(field: FieldDesc) -> QuadSpace:
    """Lambda^2 F^4 as a quadratic space: Gram of the wedge pairing."""
    one, zero = field.one(), field.zero()
    gram = [[zero] * 6 for _ in range(6)]
    for n, ij in enumerate(WEDGE_INDEX):
        kl, sign = _COMPL[ij]
        gram[n][_POS[kl]] = one if sign == 1 else -one
    return QuadSpace(field, Mat(field, gram))


# ---------------------------------------------------------------------------
# the Albert-form picture inside Lambda^2 over a tower
# ---------------------------------------------------------------------------

def s_matrix(ring) -> Mat:
    """S = r (x) r with r = ((0,-1),(1,0)); right multiplication takes the
    anti-invariants of M_4 to antisymmetric matrices."""
    one, zero = ring.one(), ring.zero()
    r = Mat(ring, [[zero, -one], [one, zero]])
    return kron(ring, r, r)


class AlbertWedgeMap:
    """A = B (x) C embedded in M_4(KL) (C outer), composed with right
    multiplication by S and the antisym-to-wedge identification.

    B = (k, eps / F) splits over K = F(sqrt k); C = (l, delta / F) over
    L = F(sqrt l).  The image of the Albert form lands in the explicit
    direct sums of the exterior-square propositions.
    """

    def __init__(self, algebra: BiquatAlg, extra_gens: Sequence = ()):
        field = algebra.ring
        self.A = algebra
        gens = [algebra.B.alpha, algebra.C.alpha] + list(extra_gens)
        self.tower = QuadTower(field, gens)
        self.s_mat = s_matrix(self.tower)

    def mat4(self, x: BiquatElem) -> Mat:
        """The 4x4 matrix over the tower, with the C factor outermost:
        biquat_to_mat4's, B outermost, with its tensor factors swapped."""
        m, _ = biquat_to_mat4(x, self.tower)
        return Mat(self.tower, [[m.rows[i][j] for j in _FACTOR_SWAP] for i in _FACTOR_SWAP])

    def wedge_coords(self, x: BiquatElem) -> List[TowerElem]:
        """A^- element -> wedge coordinates of (matrix of x) * S."""
        m = self.mat4(x) * self.s_mat
        return antisym_to_wedge(m)


# ---------------------------------------------------------------------------
# the explicit subspaces of the propositions
# ---------------------------------------------------------------------------

def _unit_wedge(ring, ij, coeff=None):
    z = ring.zero()
    v = [z] * 6
    v[_POS[ij]] = coeff if coeff is not None else ring.one()
    return v


def _combo(ring, *terms):
    z = ring.zero()
    v = [z] * 6
    for ij, coeff in terms:
        v[_POS[ij]] = v[_POS[ij]] + coeff
    return v


def wedge_subspace(field: FieldDesc, which: str, **params) -> dict:
    """Generator lists of the exterior-square subspace propositions.

    which = 'splitF' | 'splitE' | 'iso' | 'gen'; params supply the symbol
    entries (d, delta, eps, k, l) as required.  Returns generators (wedge
    coordinate vectors over the stated ring), the ambient ring, the F-Gram
    matrix of the generators, and the image direction of Q.
    """
    one = field.one()

    def fl(x):
        return field(x)

    if which == "splitF":
        ring = field
        gens = [
            _unit_wedge(ring, (0, 1)),
            _unit_wedge(ring, (0, 3)),
            _unit_wedge(ring, (1, 2)),
            _unit_wedge(ring, (2, 3)),
            _combo(ring, ((0, 2), one), ((1, 3), -one)),
        ]
        q_dir = _combo(ring, ((0, 2), one), ((1, 3), one))
    elif which == "splitE":
        d, delta, eps = fl(params["d"]), fl(params["delta"]), fl(params["eps"])
        if is_square(d):
            raise BadParameters("d must be a nonsquare")
        ring = QuadTower(field, [d])
        h = ring.root(0)
        lift = ring.from_scalar
        gens = [
            _combo(ring, ((0, 3), ring.one()), ((1, 2), -ring.one())),
            _combo(ring, ((0, 3), h), ((1, 2), h)),
            _combo(ring, ((1, 3), ring.one()), ((0, 2), -lift(eps))),
            _combo(ring, ((1, 3), h), ((0, 2), h * lift(eps))),
            _combo(ring, ((2, 3), ring.one()), ((0, 1), lift(delta))),
            _combo(ring, ((2, 3), h), ((0, 1), -h * lift(delta))),
        ]
        q_dir = _combo(ring, ((2, 3), ring.one()), ((0, 1), -lift(delta)))
    elif which == "iso":
        k, eps, delta = fl(params["k"]), fl(params["eps"]), fl(params["delta"])
        d = params.get("d")
        if is_square(k):
            raise BadParameters("k must be a nonsquare")
        gens_list = [k] if d is None else [k, fl(d)]
        ring = QuadTower(field, gens_list)
        kap = ring.root(0)
        lift = ring.from_scalar
        gens = [
            _combo(ring, ((0, 3), ring.one()), ((1, 2), -ring.one())),
            _combo(ring, ((0, 3), kap), ((1, 2), kap)),
            _combo(ring, ((1, 3), ring.one()), ((0, 2), -lift(eps))),
            _combo(ring, ((1, 3), kap), ((0, 2), kap * lift(eps))),
        ]
        if d is None:
            gens.append(_unit_wedge(ring, (0, 1)))
            gens.append(_unit_wedge(ring, (2, 3)))
        else:
            gens.append(_combo(ring, ((2, 3), ring.one()), ((0, 1), lift(delta))))
            h = ring.root(1)
            gens.append(_combo(ring, ((2, 3), h), ((0, 1), -h * lift(delta))))
        q_dir = _combo(ring, ((2, 3), ring.one()), ((0, 1), -lift(delta)))
    elif which == "gen":
        k, l = fl(params["k"]), fl(params["l"])
        eps, delta = fl(params["eps"]), fl(params["delta"])
        d = params.get("d")
        gens_list = [k, l] if d is None else [k, l, fl(d)]
        ring = QuadTower(field, gens_list)
        kap, lam = ring.root(0), ring.root(1)
        lift = ring.from_scalar
        gens = [
            _combo(ring, ((0, 3), lam), ((1, 2), -lam)),
            _combo(ring, ((0, 3), kap), ((1, 2), kap)),
            _combo(ring, ((1, 3), ring.one()), ((0, 2), -lift(eps))),
            _combo(ring, ((1, 3), kap), ((0, 2), kap * lift(eps))),
            _combo(ring, ((2, 3), lam), ((0, 1), lam * lift(delta))),
            _combo(ring, ((2, 3), ring.one()), ((0, 1), -lift(delta))),
        ]
        if d is not None:
            # twisted variant: the F-ray through the Q-image is replaced by
            # the E_0-ray; the 5-dim stabilizer space is the first five
            h = ring.root(2)
            gens[5] = _combo(ring, ((2, 3), h), ((0, 1), -h * lift(delta)))
        q_dir = _combo(ring, ((2, 3), ring.one()), ((0, 1), -lift(delta)))
    else:
        raise BadParameters("unknown subspace kind %r" % which)

    gram = _f_gram(field, ring, gens)
    return {"ring": ring, "generators": gens, "gram": gram, "q_direction": q_dir}


def _f_gram(field: FieldDesc, ring, gens) -> Mat:
    rows = []
    for u in gens:
        row = []
        for w in gens:
            val = wedge_pairing(ring, u, w)
            if isinstance(val, TowerElem):
                if not val.is_scalar():
                    raise BadParameters("pairing left the base field")
                val = val.scalar_part()
            row.append(val)
        rows.append(row)
    return Mat(field, rows)


def in_span(field: FieldDesc, gens: List, vec: List) -> bool:
    """Whether vec lies in the F-span of the generators (tower coords)."""
    def flatten(v):
        out = []
        for c in v:
            if isinstance(c, TowerElem):
                out.extend(c.c)
            else:
                out.append(c)
        return out

    cols = [flatten(g) for g in gens]
    mat = Mat(field, cols).T
    return mat.solve(flatten(vec)) is not None
