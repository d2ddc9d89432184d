"""Exterior squares of rank-4 spaces: the equivalence of Lambda^2 F^4 with
antisymmetric 4x4 matrices, on which GL_4 acts by Lambda^2 g and by
T -> g T g^t alike, the wedge pairing with its det multiplier, and the
Pfaffian (pf^2 = det).  The `wedge2equiv` suite checks all three.
"""

from __future__ import annotations

from typing import Sequence

from .errors import NotAntisymmetric
from .linalg import Mat

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
