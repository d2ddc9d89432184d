"""The benchmark's tracer (perfbench/tracing.py) finds library functions by
name, and its metrics (perfbench/run.py) read them by key: a rename in the
library must fail here, not only in perfbench's own tests."""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

from isogeny_kit import exactfield, smallfields, spin_eight  # noqa: E402
from isogeny_kit.algebras import BiquatAlg, QuatAlg  # noqa: E402
from isogeny_kit.exactfield import GF  # noqa: E402
from isogeny_kit.spin_eight import M2A  # noqa: E402


def test_tracer_installs_reads_every_metric_and_uninstalls():
    names = ("gsp_decompose", "gsp_membership", "reduced_norm_M2A",
             "_norm8_split_oracle")
    before = {name: vars(spin_eight)[name] for name in names}
    scalar_mul = vars(exactfield.Scalar)["__mul__"]
    f5 = GF(5)
    a = BiquatAlg(QuatAlg(f5, 2, -1), QuatAlg(f5, 1, 2))
    swap = M2A(a, a.zero(), a.one(), a.one(), a.zero())
    tracer = Tracer().install()
    try:
        assert spin_eight.gsp_decompose is not before["gsp_decompose"]
        gf = spin_eight.gsp_decompose(spin_eight.gsp_membership(swap))
        assert gf.assemble() == swap
        metrics = run.layer_metrics(tracer, {"seconds": 1.0},
                                    {"seconds": 1.0, "outcomes": []})
    finally:
        tracer.uninstall()
    assert {name: vars(spin_eight)[name] for name in names} == before
    assert vars(exactfield.Scalar)["__mul__"] is scalar_mul
    assert metrics["spin_eight.gsp_decompose.calls"][0] == 1
    assert metrics["spin_eight.reduced_norm_M2A.calls"][0] == 1
    assert metrics["algebras.biquat_mul.calls"][0] > 0
    # the decomposition takes reduced norms of A and inverts its blocks
    assert metrics["algebras.reduced_norm_A.calls"][0] > 0
    assert metrics["algebras.biquat_inverse.calls"][0] > 0
    assert metrics["exactfield.scalar_ops"][0] > 0


def test_tracer_counts_every_enumerated_isometry():
    """The enumerator stays a generator function, so the tracer counts the
    items it yields: |O| per exhaustive census row.  The census filters
    its det-1 isometries with quadforms.wall_value on ints, one traced
    call each; smallfields' spinor_norm binding, which the tracer counts
    as spinor_filtered, serves only so_plus_index, once per row whose
    |SO+| comes from the index-2 witness (dimensions 5 and 6 here)."""
    tracer = Tracer().install()
    try:
        rows = smallfields.census(3, 6).rows
        metrics = run.layer_metrics(tracer, {"seconds": 1.0},
                                    {"seconds": 1.0, "outcomes": []})
        wall_calls = tracer.key_calls("quadforms.wall_value")
    finally:
        tracer.uninstall()
    orders = sum(2 * r.so for r in rows if r.method == "exhaustive")
    assert orders == 2 * (2 + 4 + 24 + 576 + 720)
    assert metrics["smallfields.isometries_enumerated"][0] == orders
    witnessed = sum(1 for r in rows if r.method == "orbit-stabilizer")
    assert metrics["smallfields.spinor_filtered"][0] == witnessed == 3
    # spinor_norm takes its value from wall_value too
    assert wall_calls == sum(r.so for r in rows if r.method == "exhaustive") + witnessed


def test_tracer_binds_the_quadratic_space_entry_points():
    """perfbench counts pairings, reflections, factorisations and isotropy
    searches by these names; the int form must leave them bound."""
    from isogeny_kit import quadforms
    tracer = Tracer().install()
    try:
        space = quadforms.QuadSpace.diagonal(GF(5), [1, 2, 3])
        t = quadforms.reflect(space, [GF(5)(1), GF(5)(1), GF(5)(0)])
        quadforms.cartan_dieudonne(t)
        space.pairing(space.basis_vector(0), space.basis_vector(1))
        quadforms.find_isotropic(space)
        metrics = run.layer_metrics(tracer, {"seconds": 1.0},
                                    {"seconds": 1.0, "outcomes": []})
    finally:
        tracer.uninstall()
    for name in ("pairing", "reflect", "cartan_dieudonne"):
        assert metrics["quadforms.%s.calls" % name][0] >= 1
    assert tracer.key_calls("quadforms.find_isotropic") == 1
