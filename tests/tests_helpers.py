"""Shared sample builders and oracles for the test modules (among them the
explicit isomorphism B -> M_2(F) of a split quaternion algebra), and a
runner for checks that must hold under `python -O`."""

import os
import subprocess
import sys
import textwrap

import isogeny_kit
from isogeny_kit.errors import IsogenyKitError
from isogeny_kit.exactfield import is_square, sqrt_exact
from isogeny_kit.algebras import SPLIT_SEARCH_BUDGET, QuatAlg, QuatElem, reduced_norm_A
from isogeny_kit.linalg import Mat, independent_subset
from isogeny_kit.quadforms import Isometry, QuadSpace, find_isotropic
from isogeny_kit.spin_eight import CoveredGSpElem, GenForm, cover_identity, cover_mul


def nondiagonal_space(field, diag, rng):
    """P^t diag(d) P for a random invertible P, drawn again until the Gram
    matrix has an off-diagonal entry (when len(diag) > 1)."""
    n = len(diag)
    draw = (lambda: rng.randrange(field.p)) if field.p else (lambda: rng.randint(-1, 1))
    gram = QuadSpace.diagonal(field, diag).gram
    while True:
        p = Mat(field, [[field(draw()) for _ in range(n)] for _ in range(n)])
        if not p.det().is_zero():
            space = QuadSpace(field, p.T * gram * p)
            if n == 1 or space.diag is None:
                return space


def identity_isometry(space):
    """The identity of O(space)."""
    return Isometry(space, Mat.identity(space.field, space.dim), check=False)


def swap_gsp(**change):
    """The swap matrix's decompose input over F_5, with `change` applied
    (a None value deletes the key)."""
    blocks = [[0] * 16 for _ in range(4)]
    blocks[1][0] = blocks[2][0] = 1
    obj = {"field": "p=5", "B": [2, -1], "C": [1, 2], "blocks": blocks}
    obj.update(change)
    return {k: v for k, v in obj.items() if v is not None}


class NotASplittingField(IsogenyKitError):
    """A split-algebra oracle of the tests met an algebra or an extension
    that does not split it."""


def rand_cover(algebra, rng, k=3):
    """Random covered GSp element: product of unipotents and diagonals."""
    field = algebra.ring
    zero_v = algebra.aminus([field.zero()] * 3, [field.zero()] * 3)
    x = cover_identity(algebra)
    for _ in range(k):
        kind = rng.randrange(3)
        if kind == 0:
            gf = GenForm(algebra, _rand_aminus(algebra, rng), algebra.one(),
                         zero_v, zero_v, field(1))
            y = CoveredGSpElem(gf, field(1), check=False)
        elif kind == 1:
            gf = GenForm(algebra, zero_v, algebra.one(), zero_v,
                         _rand_aminus(algebra, rng), field(1))
            y = CoveredGSpElem(gf, field(1), check=False)
        else:
            while True:
                a = algebra.elem([rng.randrange(field.p) for _ in range(16)])
                na = reduced_norm_A(a)
                if not na.is_zero() and is_square(na):
                    break
            gf = GenForm(algebra, zero_v, a, zero_v, zero_v,
                         field(rng.randrange(1, field.p)))
            y = CoveredGSpElem(gf, sqrt_exact(na), check=False)
        x = cover_mul(x, y)
    return x


def _rand_aminus(algebra, rng):
    p = algebra.ring.p
    return algebra.aminus([rng.randrange(p) for _ in range(3)],
                          [rng.randrange(p) for _ in range(3)])


def reduced_norm_A_poly(x):
    """Degree-4 reduced norm of A = B (x) C, as an explicit polynomial.

    Writing x = al + de i + be j + ga ij with B-coefficients over the
    generators i, j of C (i^2 = eta, j^2 = eps), the norm expands into
    quaternion norms and traces.  The library computes it through a
    symplectic involution instead; this is the independent form it is
    tested against.
    """
    algebra = x.algebra
    b_alg = algebra.B
    eta = algebra.C.alpha
    eps = algebra.C.beta
    al = QuatElem(b_alg, [x.c[4 * s + 0] for s in range(4)])
    de = QuatElem(b_alg, [x.c[4 * s + 1] for s in range(4)])
    be = QuatElem(b_alg, [x.c[4 * s + 2] for s in range(4)])
    ga = QuatElem(b_alg, [x.c[4 * s + 3] for s in range(4)])

    def nsq(q):
        n = q.norm()
        return n * n

    def tr_sq(p, q):
        t = p.bar() * q
        return (t * t).trace()

    two = algebra.ring(2)
    return (
        nsq(al) + eta * eta * nsq(de) + eps * eps * nsq(be)
        + eta * eta * eps * eps * nsq(ga)
        - eta * tr_sq(al, de) - eps * tr_sq(al, be)
        + eta * eps * tr_sq(al, ga) + eta * eps * tr_sq(de, be)
        - eta * eta * eps * tr_sq(de, ga) - eps * eps * eta * tr_sq(be, ga)
        - two * eta * eps * (al.bar() * be * de.bar() * ga).trace()
        + two * eta * eps * (al.bar() * ga * de.bar() * be).trace()
    )


def quat_zero_divisor(b: QuatAlg) -> QuatElem:
    """A nonzero element of norm 0 in a split algebra."""
    v = find_isotropic(b.norm_form(), budget=SPLIT_SEARCH_BUDGET)
    if v is None:
        raise NotASplittingField("algebra has no zero divisors")
    return b.elem(v)


class SplitIso:
    """Explicit isomorphism B -> M_2(F) for split B (left ideal action)."""

    def __init__(self, b: QuatAlg):
        self.algebra = b
        field = b.ring
        u = quat_zero_divisor(b)
        # 2-dimensional left ideal B*u, as a column space over F
        ideal = independent_subset(field, [(x * u).c for x in b.basis()], 2)
        self.ideal_basis = [QuatElem(b, c) for c in ideal]
        self._solve_mat = Mat(field, [[ideal[j][i] for j in range(2)]
                                      for i in range(4)])

    def matrix(self, x: QuatElem) -> Mat:
        """Image of x: the action of left multiplication on the ideal."""
        field = self.algebra.ring
        cols = []
        for w in self.ideal_basis:
            img = x * w
            sol = self._solve_mat.solve(img.c)
            if sol is None:
                raise NotASplittingField("ideal is not invariant (internal error)")
            cols.append(sol)
        return Mat(field, [[cols[j][i] for j in range(2)] for i in range(2)])


def map_coeffs(x, f, algebra=None):
    """The table element with coefficients f(c) for the coefficients c of
    x, in `algebra` (x's own by default): the coefficientwise oracle of
    `TableElem.rho` and `TableElem.over`."""
    return type(x)(algebra or x.algebra, [f(a) for a in x.c])


def run_optimized(code):
    """Run `code` under `python -O` with the tests directory and the library
    on the path; returns its standard output."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(isogeny_kit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, here)))
    out = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(code)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout
