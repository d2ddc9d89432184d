"""The benchmark's workloads, their inputs and their correctness gate.

Every workload is a list of ops run in passes.  An op is one call into the
library plus its checks: one `isogeny-kit verify` of a single suite, one
`isogeny-kit census`, or one Cartan-Dieudonne factorisation.  The run seed
orders the ops of each pass and, where the cost does not depend on it,
picks the inputs:

- suites-fp: pass i verifies all suites but `census` over F_5 at the suite
  seed `(seed + i) % 16`, each with a reference report;
- suites-q: all suites but `census` over Q at suite seed 0.  Over Q the
  cost depends on the suite seed (17-25 s for seeds 0-9 at one trial on
  a 2-vCPU Xeon), more than a run of affordable length averages out, so
  the seed is fixed and the run seed only orders the calls;
- census: the census for p = 3, 5, 7 up to the criterion-7 dimensions
  6, 4, 4 (each call covers every smaller dimension too), which is
  deterministic;
- cartan-dieudonne: 20 seeded isometries per (field, dimension) for
  F_3, F_5, F_7 and Q in dimensions 1-8, each factorised and checked.

The gate: each suite or census op's `--out` file must match the
reference digest recorded in `reference.json` (made by
`make_reference.py`), and so must its exit status, its check count or the
exception it raises.  Census orders are checked against closed forms
computed here, and factorisations against the Cartan-Dieudonne
invariants.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("suites-fp", "suites-q", "census", "cartan-dieudonne")

SUITE_FIELD = {"suites-fp": "p=5", "suites-q": "Q"}
SUITE_TRIALS = {"suites-fp": 8, "suites-q": 2}
SUITE_SEEDS = {"suites-fp": tuple(range(16)), "suites-q": (0,)}
CENSUS_MAXDIM = {3: 6, 5: 4, 7: 4}
CD_FIELDS = ("p=3", "p=5", "p=7", "Q")
CD_DIMS = tuple(range(1, 9))
CD_PER_SPACE = 20


def library_present() -> bool:
    return (SRC / "isogeny_kit" / "__init__.py").is_file()


def import_library():
    """The library modules the workloads call, from the checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from isogeny_kit import cli, exactfield, quadforms, smallfields, suites
    return types.SimpleNamespace(cli=cli, exactfield=exactfield, quadforms=quadforms,
                                 smallfields=smallfields, suites=suites)


def config() -> dict:
    """What the reference reports depend on; stored with them."""
    return {"suite_field": SUITE_FIELD, "suite_trials": SUITE_TRIALS,
            "suite_seeds": {k: list(v) for k, v in SUITE_SEEDS.items()},
            "census_maxdim": {str(p): d for p, d in CENSUS_MAXDIM.items()}}


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    if ref["config"] != config():
        raise SystemExit("reference.json was made for another workload "
                         "configuration; run perfbench/make_reference.py")
    return ref["ops"]


class Op:
    """One call into the library plus its checks.

    `run()` returns (record, problems, checks): a record compared with
    `reference` when that is set, a list of failed benchmark-side checks,
    and the number of checks done.
    """

    __slots__ = ("label", "run", "reference")

    def __init__(self, label, run, reference=None):
        self.label = label
        self.run = run
        self.reference = reference


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_call(cli, argv, out_path):
    """cli.main with its stdout swallowed; returns (exit status, --out bytes
    or None when the command wrote no report)."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    try:
        with open(out_path, "rb") as fh:
            return rc, fh.read()
    except FileNotFoundError:
        return rc, None


# -- suites ---------------------------------------------------------------

def suite_names(suites_mod):
    return [n for n in sorted(suites_mod.SUITES) if n != "census"]


def suite_label(workload, seed, name):
    return "%s/%d/%s" % (workload, seed, name)


def suite_op(lib, workload, seed, name, out_path, reference=None):
    argv = ["verify", name, "--field", SUITE_FIELD[workload], "--seed", str(seed),
            "--trials", str(SUITE_TRIALS[workload]), "--out", out_path]

    def run():
        rc, data = _cli_call(lib.cli, argv, out_path)
        if data is None:
            return {"rc": rc, "sha256": None, "checks": 0}, [], 0
        summary = json.loads(data.splitlines()[-1])
        checks = sum(s["cases"] for s in summary["suites"])
        return {"rc": rc, "sha256": _digest(data), "checks": checks}, [], checks
    return Op(suite_label(workload, seed, name), run, reference)


# -- census ---------------------------------------------------------------

def census_calls():
    return sorted(CENSUS_MAXDIM.items())


def least_nonresidue(p: int) -> int:
    return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)


def so_order(q: int, n: int, trivial_disc: bool) -> int:
    """|SO(V)| for a nondegenerate n-dimensional V over F_q, q odd.

    n = 2m + 1: q^(m^2) prod_{i<=m} (q^2i - 1).  n = 2m: V is split exactly
    when its discriminant (-1)^m det is a square, and
    |SO| = q^(m(m-1)) (q^m - e) prod_{i<m} (q^2i - 1), e = +1 split, -1 not.
    """
    if n == 1:
        return 1
    m = n // 2
    prod = 1
    for i in range(1, m + n % 2):
        prod *= q ** (2 * i) - 1
    if n % 2:
        return q ** (m * m) * prod
    return q ** (m * (m - 1)) * (q ** m - (1 if trivial_disc else -1)) * prod


def census_problems(report: dict, p: int, maxdim: int):
    """Compare a census --out report with the closed forms above."""
    want = []
    for n in range(1, maxdim + 1):
        for trivial in ([True] if n % 2 else [True, False]):
            so = so_order(p, n, trivial)
            want.append({"dim": n, "disc": "1" if trivial else str(least_nonresidue(p)),
                         "SO": so, "SO+": so // 2 if n > 1 else 1})
    got = [{k: row.get(k) for k in ("dim", "disc", "SO", "SO+")}
           for row in report.get("rows", [])]
    if report.get("field") != "p=%d" % p:
        return ["field %r" % report.get("field")]
    return ["row %r, closed form %r" % (g, w) for g, w in zip(got, want) if g != w] \
        + (["%d rows, closed forms give %d" % (len(got), len(want))]
           if len(got) != len(want) else [])


def census_label(p, maxdim):
    return "census/%d/%d" % (p, maxdim)


def census_op(lib, p, maxdim, out_path, reference=None):
    argv = ["census", str(p), str(maxdim), "--out", out_path]

    def run():
        rc, data = _cli_call(lib.cli, argv, out_path)
        if data is None:
            return {"rc": rc, "sha256": None, "checks": 0}, ["no census report"], 0
        report = json.loads(data)
        rows = len(report.get("rows", []))
        return ({"rc": rc, "sha256": _digest(data), "checks": rows},
                census_problems(report, p, maxdim), rows)
    return Op(census_label(p, maxdim), run, reference)


# -- Cartan-Dieudonne -----------------------------------------------------

def cd_inputs(lib, seed: int):
    """Seeded (space, isometry, shuffled pivot order) triples, as in
    acceptance criterion 2: diagonal spaces with entries in 1..p-1 over
    F_p and 1..4 over Q, isometries of height 1, at most dim mirrors over Q."""
    quadforms = lib.quadforms
    rng = random.Random("cartan-dieudonne:%d" % seed)
    out = []
    for spec in CD_FIELDS:
        field = lib.exactfield.parse_field(spec)
        for dim in CD_DIMS:
            entries = [field(rng.randrange(1, field.p)) if field.p else field(rng.randint(1, 4))
                       for _ in range(dim)]
            space = quadforms.QuadSpace.diagonal(field, entries)
            for k in range(CD_PER_SPACE):
                t = quadforms.random_isometry(space, rng, height=1,
                                              max_mirrors=None if field.p else dim)
                order = list(range(dim))
                rng.shuffle(order)
                out.append(("%s/%d/%d" % (spec, dim, k), space, t, order))
    return out


def cd_op(lib, label, space, t, order):
    quadforms = lib.quadforms

    def mirror_value(mirrors):
        val = space.field(1)
        for v in mirrors:
            val = val * space.vnorm(v)
        return val

    def run():
        problems = []
        mirrors = quadforms.cartan_dieudonne(t)
        if quadforms.compose_reflections(space, mirrors) != t:
            problems.append("mirrors do not compose to the isometry")
        if len(mirrors) > 2 * space.dim:
            problems.append("%d mirrors in dimension %d" % (len(mirrors), space.dim))
        shuffled = quadforms.cartan_dieudonne(t, pivot_order=order)
        if not lib.exactfield.is_square(mirror_value(mirrors) / mirror_value(shuffled)):
            problems.append("spinor class depends on the pivot order %r" % order)
        return None, problems, 3
    return Op("cartan-dieudonne/" + label, run)


def execute(op: Op, recording: bool = False) -> dict:
    """Run one op.  An op fails when it raises or exits non-zero; it
    mismatches when its record differs from the reference or a check of
    its output fails.  Either way the workload goes on.

    An op without a reference mismatches when it raises, unless its
    record is being made into the reference (`recording`): then the
    exception is the outcome the reference keeps."""
    try:
        record, problems, checks = op.run()
    except Exception as ex:  # the boundary of one op: record it and go on
        error = "%s: %s" % (type(ex).__name__, ex)
        record, checks = {"error": error}, 0
        problems = ["raised " + error] if op.reference is None and not recording else []
    if op.reference is not None and record != op.reference:
        problems = problems + ["record %r, reference %r" % (record, op.reference)]
    failed = "error" in (record or {}) or (record or {}).get("rc", 0) != 0
    return {"label": op.label, "record": record, "failed": failed,
            "problems": problems, "checks": checks}


# -- plans ----------------------------------------------------------------

class Plan:
    """The ops of every pass of one workload at one run seed."""

    def __init__(self, workload: str, seed: int, tmpdir: str, lib=None):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % workload)
        self.workload = workload
        self.seed = seed
        self.lib = lib or import_library()
        self.out_path = os.path.join(tmpdir, "out.json")
        if workload == "cartan-dieudonne":
            self.cd = [cd_op(self.lib, *item) for item in cd_inputs(self.lib, seed)]
        else:
            self.reference = load_reference()

    def suite_seed(self, pass_index: int) -> int:
        seeds = SUITE_SEEDS[self.workload]
        return seeds[(self.seed + pass_index) % len(seeds)]

    def pass_ops(self, pass_index: int):
        w = self.workload
        if w in SUITE_FIELD:
            s = self.suite_seed(pass_index)
            ops = [suite_op(self.lib, w, s, name, self.out_path,
                            self.reference[suite_label(w, s, name)])
                   for name in suite_names(self.lib.suites)]
        elif w == "census":
            ops = [census_op(self.lib, p, d, self.out_path, self.reference[census_label(p, d)])
                   for p, d in census_calls()]
        else:
            ops = list(self.cd)
        random.Random("%s:%d:%d" % (w, self.seed, pass_index)).shuffle(ops)
        return ops


def reference_ops(lib, out_path):
    """Every op whose record reference.json holds."""
    for w in SUITE_FIELD:
        for s in SUITE_SEEDS[w]:
            for name in suite_names(lib.suites):
                yield suite_op(lib, w, s, name, out_path)
    for p, d in census_calls():
        yield census_op(lib, p, d, out_path)
