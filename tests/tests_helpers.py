"""Shared sample builders and oracles for the test modules, and a runner
for checks that must hold under `python -O`."""

import os
import subprocess
import sys
import textwrap

import isogeny_kit
from isogeny_kit.exactfield import is_square, sqrt_exact
from isogeny_kit.algebras import QuatElem, reduced_norm_A
from isogeny_kit.spin_eight import CoveredGSpElem, GenForm, cover_identity, cover_mul


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
