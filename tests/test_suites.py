"""The named verification suites, their determinism, and the mutation
harness (every single-sign flip in theta, D, or the psi diagonal rule
must make a named suite fail, each reflection suite must catch a mutant
of its own model's reflection, and wedge2equiv and dim7rd each a mutant
of the construction they check)."""

import contextlib
import os
import random
import subprocess
import sys
import textwrap

import pytest

import isogeny_kit
from isogeny_kit import algebras, spin_eight, spin_six, suites, wedge
from isogeny_kit.algebras import AminusVector
from isogeny_kit.errors import DecompositionFailed, InvariantViolated, UnknownSuite
from isogeny_kit.exactfield import parse_field
from isogeny_kit.spin_low import Dim2Model, Dim3Model, Dim4Model
from isogeny_kit.suites import SUITES, RunConfig, run_all, run_suite
from isogeny_kit.towers import TableElem
from tests_helpers import run_optimized

FAST_CONFIG = RunConfig.from_args("p=3", seed=11, trials=8)

SPEC_NAMED_SUITES = [
    "BEpol", "NAexp", "NAvn2", "NAFg", "AxA-rel", "normsq", "GSphom",
    "GSppsi", "GSpprod", "comp", "vnorm8", "GSppresHA", "hpsiGSprel",
    "ref8id1", "dim7rd", "QthetaQrel", "Qhatpsi", "GSprhoQst",
    "wedge2equiv", "F/F2=2", "SO+ind2",
]


def test_spec_suite_names_registered():
    for name in SPEC_NAMED_SUITES:
        assert name in SUITES


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("no-such-suite", FAST_CONFIG)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    res = run_suite(name, FAST_CONFIG)
    assert res.passed, res.failures[:3]
    assert res.cases > 0


Q_REFLECTION_SUITES = ("CDT", "ref2", "ref3", "ref4", "ref6d1", "ref6gen",
                       "ref8id1", "ref8igen")


@pytest.mark.parametrize("seed", range(5))
def test_reflection_suites_pass_over_q(seed):
    config = RunConfig.from_args("Q", seed=seed, trials=8)
    for name in Q_REFLECTION_SUITES:
        res = run_suite(name, config)
        assert res.passed, (name, res.failures[:3])
        assert res.cases > 0


@pytest.mark.parametrize("seed", [0, 1, 3, 4])
@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="ROADMAP item 2: squarefree_part raises ValueError past its "
                          "trial-division bound on a GSphom norm over Q")
def test_gsphom_over_q(seed):
    res = run_suite("GSphom", RunConfig.from_args("Q", seed=seed, trials=8))
    assert res.passed, res.failures[:3]


def field_elems_by_scalars(field, rng, n, height=4):
    """The samples as drawn before they were ints: one Scalar per draw."""
    if field.p is not None:
        return [field(rng.randrange(field.p)) for _ in range(n)]
    return [field(rng.randint(-height, height)) for _ in range(n)]


@pytest.mark.parametrize("spec", ["p=5", "Q"])
@pytest.mark.parametrize("seed", [0, 1, 7, 101])
def test_int_samples_equal_the_scalar_built_ones(spec, seed):
    """field_elems, random_biquat and random_aminus draw ints; the elements
    and their reprs (what a report holds) are those of the Scalar-built
    samples, and the rng is left in the same state."""
    field = parse_field(spec)
    new, old = random.Random(seed), random.Random(seed)
    for algebra in suites.biquat_instances(field):
        for height in (3, 4):
            got = suites.field_elems(field, new, 5, height)
            want = field_elems_by_scalars(field, old, 5, height)
            assert got == want and repr(got) == repr(want)
            got = suites.random_biquat(algebra, new, height)
            want = algebra.elem(field_elems_by_scalars(field, old, 16, height))
            assert got == want and got.c == want.c and repr(got) == repr(want)
            got = suites.random_aminus(algebra, new, height)
            want = algebra.aminus(field_elems_by_scalars(field, old, 3, height),
                                  field_elems_by_scalars(field, old, 3, height))
            assert got == want and repr(got) == repr(want)
            assert new.getstate() == old.getstate()


def test_suites_deterministic():
    r1 = run_suite("normsq", FAST_CONFIG)
    r2 = run_suite("normsq", FAST_CONFIG)
    assert r1.cases == r2.cases and r1.failures == r2.failures


def test_gspprod_records_a_failed_decomposition(monkeypatch):
    """A product that gsp_decompose cannot decompose is a failed check with
    its own label, so a run checks every case it draws."""
    orig = spin_eight.gsp_decompose

    def fail_in_gspprod(g, v_constraints=None):
        if sys._getframe(1).f_code.co_name == "suite_GSpprod":
            raise DecompositionFailed("injected")
        return orig(g, v_constraints)

    monkeypatch.setattr(spin_eight, "gsp_decompose", fail_in_gspprod)
    res = run_suite("GSpprod", RunConfig.from_args("p=5", seed=0, trials=3))
    assert res.cases == 3
    assert [f["case"] for f in res.failures] == ["GSpprod-decomposition-failed"] * 3
    assert "injected" in res.failures[0]["error"]


def test_dim7rd_redraws_after_stabilizer_shortfall(monkeypatch):
    # at p=3, seed 0, none of the first three generators lies in GSp
    config = RunConfig.from_args("p=3", seed=0, trials=3)
    res = run_suite("dim7rd", config)
    assert res.passed, res.failures[:3]
    assert res.cases > 1
    # once the redraws run out, the shortfall is still a failure
    monkeypatch.setattr(suites, "EXTRA_DRAWS", 0)
    res = run_suite("dim7rd", config)
    assert [f["case"] for f in res.failures] == ["sampled-any-stabilizers"]


def test_gsprhoqst_redraws_after_member_shortfall(monkeypatch):
    # at p=5, seed 7, neither of the first two draws gives a member
    config = RunConfig.from_args("p=5", seed=7, trials=2)
    res = run_suite("GSprhoQst", config)
    assert res.passed, res.failures[:3]
    assert res.cases > 1
    monkeypatch.setattr(suites, "EXTRA_DRAWS", 0)
    res = run_suite("GSprhoQst", config)
    assert [f["case"] for f in res.failures] == ["sampled-any-members"]


def test_gsprhoqst_redraws_do_not_hide_an_empty_membership():
    """A membership test that finds no member still fails the suite, also
    under python -O, at any number of trials."""
    out = run_optimized("""
        from isogeny_kit import spin_eight
        from isogeny_kit.suites import RunConfig, run_suite
        assert False, "asserts are live"
        spin_eight.Twisted8.membership = lambda self, g: None
        for trials in (0, 2, 8):
            res = run_suite("GSprhoQst", RunConfig.from_args("p=5", seed=7, trials=trials))
            print(trials, res.passed, sorted({f["case"] for f in res.failures}))
        """)
    assert out.splitlines() == [
        "%d False ['gQhat-inverse-is-member', 'sampled-any-members']" % trials
        for trials in (0, 2, 8)]


def test_run_all_threaded():
    res = run_all(RunConfig.from_args("p=3", seed=1, trials=3),
                  names=["Sadjt", "BEpol", "normsq"])
    assert [r.name for r in res] == ["BEpol", "Sadjt", "normsq"]
    assert all(r.passed for r in res)


# ---------------------------------------------------------------------------
# mutation sensitivity
# ---------------------------------------------------------------------------

MUTATION_SUITES = ["normsq", "vnorm8", "GSppsi"]


def run_mutation_suites():
    config = RunConfig.from_args("p=5", seed=5, trials=6)
    out = {}
    for name in MUTATION_SUITES:
        try:
            res = run_suite(name, config)
            out[name] = res.passed
        except Exception:
            out[name] = False
    return out


def patch_theta(monkeypatch, fn):
    for module in (algebras, spin_six, spin_eight):
        monkeypatch.setattr(module, "theta", fn)


def test_mutation_baseline():
    assert all(run_mutation_suites().values())


def test_mutation_theta_drop_minus(monkeypatch):
    patch_theta(monkeypatch, lambda u: AminusVector(u.algebra, list(u.x), list(u.y)))
    assert not all(run_mutation_suites().values())


def test_mutation_theta_negate_all(monkeypatch):
    patch_theta(monkeypatch,
                lambda u: AminusVector(u.algebra, [-v for v in u.x],
                                       [-v for v in u.y]))
    assert not all(run_mutation_suites().values())


def bad_d_pairing(eta, omega):
    """spin_eight.D with the sign of its pairing term flipped."""
    ring = eta.algebra.ring
    pr = algebras.albert_pair(eta, algebras.theta(omega))
    return ring.one() - pr - pr + \
        algebras.albert_norm(omega) * algebras.albert_norm(eta)


COMP_CONFIG = RunConfig.from_args("p=5", seed=0, trials=20)


def test_mutation_d_flip_pairing_sign(monkeypatch):
    monkeypatch.setattr(spin_eight, "D", bad_d_pairing)
    assert not all(run_mutation_suites().values())


def test_comp_catches_d_flip_pairing_sign(monkeypatch):
    # comp_reparam's own check fails on a share of the cases; suite_comp
    # skips only SingularReparam, so the InvariantViolated is not a pass
    assert run_suite("comp", COMP_CONFIG).passed
    monkeypatch.setattr(spin_eight, "D", bad_d_pairing)
    try:
        passed = run_suite("comp", COMP_CONFIG).passed
    except InvariantViolated:
        passed = False
    assert not passed


def test_comp_check_survives_assert_stripping():
    code = textwrap.dedent("""
        from isogeny_kit import algebras, spin_eight
        from isogeny_kit.errors import InvariantViolated
        from isogeny_kit.suites import RunConfig, run_suite
        assert False, "asserts are live"

        def bad_d(eta, omega):
            pr = algebras.albert_pair(eta, algebras.theta(omega))
            return eta.algebra.ring.one() - pr - pr + \\
                algebras.albert_norm(omega) * algebras.albert_norm(eta)

        spin_eight.D = bad_d
        try:
            run_suite("comp", RunConfig.from_args("p=5", seed=0, trials=20))
        except InvariantViolated as exc:
            print("raised", exc)
        """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(isogeny_kit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised reparametrization changed the matrix")


def test_mutation_d_flip_norm_sign(monkeypatch):
    def bad_d(eta, omega):
        ring = eta.algebra.ring
        pr = algebras.albert_pair(eta, algebras.theta(omega))
        return ring.one() + pr + pr - \
            algebras.albert_norm(omega) * algebras.albert_norm(eta)
    monkeypatch.setattr(spin_eight, "D", bad_d)
    assert not all(run_mutation_suites().values())


def test_mutation_psi_negate_block(monkeypatch):
    monkeypatch.setattr(spin_eight, "_psi_diagonal",
                        lambda a, t: (-(a.bar().inverse().scale(t)), t))
    assert not all(run_mutation_suites().values())


def test_mutation_psi_negate_root(monkeypatch):
    monkeypatch.setattr(spin_eight, "_psi_diagonal",
                        lambda a, t: (a.bar().inverse().scale(t), -t))
    assert not all(run_mutation_suites().values())


def bad_d_norm(eta, omega):
    """spin_eight.D with the sign of its norm term flipped."""
    ring = eta.algebra.ring
    pr = algebras.albert_pair(eta, algebras.theta(omega))
    return ring.one() + pr + pr - \
        algebras.albert_norm(omega) * algebras.albert_norm(eta)


# the D and psi mutants of this module and of acceptance criterion 8, by
# the spin_eight name each replaces
COVER_MUTANTS = {
    "D-pairing-sign": ("D", bad_d_pairing),
    "D-norm-sign": ("D", bad_d_norm),
    "psi-negate-block": ("_psi_diagonal",
                         lambda a, t: (-(a.bar().inverse().scale(t)), t)),
    "psi-negate-root": ("_psi_diagonal",
                        lambda a, t: (a.bar().inverse().scale(t), -t)),
}


def test_cover_mutants_survive_assert_stripping():
    """The identity reparametrization skips D, since D(0, beta) = 1 under
    every D mutant; each mutant must still fail a suite under python -O."""
    out = run_optimized("""
        import test_suites as t
        from isogeny_kit import spin_eight
        assert False, "asserts are live"
        for label, (name, fn) in sorted(t.COVER_MUTANTS.items()):
            real = getattr(spin_eight, name)
            setattr(spin_eight, name, fn)
            print(label, all(t.run_mutation_suites().values()))
            setattr(spin_eight, name, real)
        """)
    assert out.splitlines() == ["%s False" % label for label in sorted(COVER_MUTANTS)]


# the norm suites against mutants of the bi-quaternion int forms
# (algebras._BiquatForms), by the attribute each replaces
FORM_SUITES = ("NAvn2", "NAFg", "normsq", "GSphom")
_FORMS = algebras._BiquatForms
_FORMS_INIT, _FORMS_ADJUGATE = _FORMS.__init__, _FORMS.adjugate


def _drop_sym_term(forms, res):
    """One term of the tau-symmetric form s_2 left out."""
    _FORMS_INIT(forms, res)
    forms.sym[1] = forms.sym[1][1:]


def _flip_tau_sign(forms, res):
    """The forms derived with tau's sign at b_1 (x) c_2 flipped."""
    real = algebras._TAU_SIGNS16
    algebras._TAU_SIGNS16 = tuple(-s if i == 6 else s for i, s in enumerate(real))
    try:
        _FORMS_INIT(forms, res)
    finally:
        algebras._TAU_SIGNS16 = real


def _flip_albert_weight(forms, res):
    """The Albert weight of 1 (x) c_1 negated."""
    _FORMS_INIT(forms, res)
    i, j, t, n = forms.albert[3]
    forms.albert[3] = (i, j, t, -n)


def _bad_adjugate_sign(forms, s):
    """2 s_0 - s with its last Sym(A, tau) coordinate's sign flipped."""
    v = _FORMS_ADJUGATE(forms, s)
    v[forms.sym_index[-1]] *= -1
    return v


FORM_MUTANTS = {
    "sym-drop-term": ("__init__", _drop_sym_term),
    "tau-sign": ("__init__", _flip_tau_sign),
    "albert-weight-sign": ("__init__", _flip_albert_weight),
    "adjugate-sign": ("adjugate", _bad_adjugate_sign),
}


@contextlib.contextmanager
def form_mutant(label):
    """The named mutant in place; the forms built so far, which equal
    descriptors share, are dropped on entry and on exit."""
    name, fn = FORM_MUTANTS[label]
    real = getattr(_FORMS, name)
    setattr(_FORMS, name, fn)
    algebras._forms_of.cache_clear()
    try:
        yield
    finally:
        setattr(_FORMS, name, real)
        algebras._forms_of.cache_clear()


def form_suites_catch(field):
    """Whether one of FORM_SUITES fails, or raises, over `field`."""
    config = RunConfig.from_args(field, seed=5, trials=6)
    for name in FORM_SUITES:
        try:
            if not run_suite(name, config).passed:
                return True
        except Exception:
            return True
    return False


@pytest.mark.parametrize("field", ["p=5", "Q"])
def test_form_suites_pass_unmutated(field):
    assert not form_suites_catch(field)


@pytest.mark.parametrize("label", sorted(FORM_MUTANTS))
def test_form_mutants_fail_a_norm_suite(label):
    with form_mutant(label):
        for field in ("p=5", "Q"):
            assert form_suites_catch(field), (label, field)


def test_form_mutants_survive_assert_stripping():
    out = run_optimized("""
        import test_suites as t
        assert False, "asserts are live"
        for label in sorted(t.FORM_MUTANTS):
            with t.form_mutant(label):
                print(label, t.form_suites_catch("p=5"))
        """)
    assert out.splitlines() == ["%s True" % label for label in sorted(FORM_MUTANTS)]


# ---------------------------------------------------------------------------
# reflection suites: each catches a mutant of its own model's reflection
# ---------------------------------------------------------------------------

def _other_branch(x):
    return spin_eight.CoveredGSpElem(x.gf, -x.t, check=False)


def mutate_ref2(patch):
    orig = Dim2Model.reflection_on
    patch(Dim2Model, "reflection_on", lambda self, g, z: -orig(self, g, z))


def mutate_ref3(patch):
    # without the minus sign the map is the conjugation action, a rotation
    patch(Dim3Model, "reflection_on", Dim3Model.act_on)


def mutate_ref4(patch):
    # without the bar the map is the action of g, a rotation
    patch(Dim4Model, "reflection_on", Dim4Model.act_on)


def mutate_ref6d1(patch):
    orig = spin_six.ref6d1_map

    def ref6d1_map(g):
        refl = orig(g)
        return lambda u: -refl(u)

    patch(spin_six, "ref6d1_map", ref6d1_map)


def mutate_ref6gen(patch):
    orig = spin_six.ref6gen_lift

    def ref6gen_lift(ts, g):
        # the action of g h Q^-1 without the Qtheta map
        member, _ = orig(ts, g)
        return member, member.act_on

    patch(spin_six, "ref6gen_lift", ref6gen_lift)


def mutate_ref8id1(patch):
    orig = spin_eight.ref8_lift

    def ref8_lift(g):
        x, flag = orig(g)
        return _other_branch(x), flag

    patch(spin_eight, "ref8_lift", ref8_lift)


def mutate_ref8igen(patch):
    orig = spin_eight.ref8igen_lift

    def ref8igen_lift(tw8, g):
        return spin_eight.RhoQ8Elem(_other_branch(orig(tw8, g).x))

    patch(spin_eight, "ref8igen_lift", ref8igen_lift)


REFLECTION_MUTANTS = {
    "ref2": mutate_ref2, "ref3": mutate_ref3, "ref4": mutate_ref4,
    "ref6d1": mutate_ref6d1, "ref6gen": mutate_ref6gen,
    "ref8id1": mutate_ref8id1, "ref8igen": mutate_ref8igen,
}
MUTANT_CONFIG = RunConfig.from_args("p=5", seed=0, trials=4)


@pytest.mark.parametrize("kind", sorted(REFLECTION_MUTANTS))
def test_reflection_suite_catches_its_mutant(kind, monkeypatch):
    assert run_suite(kind, MUTANT_CONFIG).passed
    REFLECTION_MUTANTS[kind](monkeypatch.setattr)
    res = run_suite(kind, MUTANT_CONFIG)
    assert res.failures and {f["case"] for f in res.failures} == {kind}


def rho_even_negated(self):
    """TableElem.rho negating the even F-coordinates instead of the odd."""
    v, d = self._ints()
    return self._of(self.algebra, [a if i & 1 else -a for i, a in enumerate(v)], d)


# mutants of the Galois action rho on the table core, and the suites of the
# rho-twisted spaces that must record failures under each
RHO_MUTANTS = {"identity": lambda self: self, "even-negated": rho_even_negated}
RHO_SUITES = ("GSprhoQst", "Qhatpsi", "QthetaQrel", "sp6gen")


@pytest.mark.parametrize("mutant", sorted(RHO_MUTANTS))
def test_twisted_suites_catch_rho_mutants(mutant, monkeypatch):
    monkeypatch.setattr(TableElem, "rho", RHO_MUTANTS[mutant])
    for name in RHO_SUITES:
        assert run_suite(name, MUTANT_CONFIG).failures, name


def test_rho_mutants_survive_assert_stripping():
    out = run_optimized("""
        import test_suites as t
        from isogeny_kit.suites import run_suite
        from isogeny_kit.towers import TableElem
        assert False, "asserts are live"
        real = TableElem.rho
        for mutant, rho in sorted(t.RHO_MUTANTS.items()):
            TableElem.rho = rho
            for name in t.RHO_SUITES:
                print(mutant, name, bool(run_suite(name, t.MUTANT_CONFIG).failures))
        TableElem.rho = real
        """)
    assert out.splitlines() == ["%s %s True" % (mutant, name)
                                for mutant in sorted(RHO_MUTANTS) for name in RHO_SUITES]


def test_reflection_mutants_survive_assert_stripping():
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    code = textwrap.dedent("""
        import sys
        sys.path.insert(0, %r)
        import test_suites as t
        from isogeny_kit.suites import run_suite
        assert False, "asserts are live"

        for kind, mutate in sorted(t.REFLECTION_MUTANTS.items()):
            saved = []

            def patch(owner, name, value):
                saved.append((owner, name, getattr(owner, name)))
                setattr(owner, name, value)

            mutate(patch)
            res = run_suite(kind, t.MUTANT_CONFIG)
            for owner, name, value in saved:
                setattr(owner, name, value)
            print(kind, sorted({f["case"] for f in res.failures}))
        """ % tests_dir)
    src = os.path.dirname(os.path.dirname(os.path.abspath(isogeny_kit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["%s ['%s']" % (kind, kind)
                                       for kind in sorted(REFLECTION_MUTANTS)]


# ---------------------------------------------------------------------------
# wedge2equiv and dim7rd: each records failures under a mutant of what it
# checks, by the (module, name) the mutant replaces
# ---------------------------------------------------------------------------

_LAMBDA2, _DIM7_Q = wedge.lambda2_matrix, spin_eight.dim7_q


def _pfaffian_term_sign(m):
    """The Pfaffian with the sign of its t02 t13 term flipped."""
    return m[0, 1] * m[2, 3] + m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]


def _lambda2_transpose(g):
    """Lambda^2 built from g^t."""
    return _LAMBDA2(g.T)


def _dim7_q_minus_delta(algebra, delta):
    """((0, delta), (1, 0)) for the stabilized ((0, -delta), (1, 0))."""
    return _DIM7_Q(algebra, -algebra.ring(delta))


# label: (suite, module, name, mutant, the cases the suite then fails)
SUITE_MUTANTS = {
    "pfaffian-term-sign": ("wedge2equiv", wedge, "pfaffian", _pfaffian_term_sign,
                           ["pf-squared-is-det"]),
    "lambda2-transpose": ("wedge2equiv", wedge, "lambda2_matrix", _lambda2_transpose,
                          ["naturality"]),
    "dim7-q-minus-delta": ("dim7rd", spin_eight, "dim7_q", _dim7_q_minus_delta,
                           ["generator-is-member", "sampled-any-stabilizers"]),
}


def failed_cases(suite, field):
    return sorted({f["case"] for f in
                   run_suite(suite, RunConfig.from_args(field, seed=0, trials=4)).failures})


@pytest.mark.parametrize("label", sorted(SUITE_MUTANTS))
def test_suite_catches_its_construction_mutant(label, monkeypatch):
    suite, module, name, mutant, cases = SUITE_MUTANTS[label]
    for field in ("p=5", "Q"):
        assert failed_cases(suite, field) == []
    monkeypatch.setattr(module, name, mutant)
    for field in ("p=5", "Q"):
        assert failed_cases(suite, field) == cases, field


def test_construction_mutants_survive_assert_stripping():
    out = run_optimized("""
        import test_suites as t
        assert False, "asserts are live"
        for label, (suite, module, name, mutant, _) in sorted(t.SUITE_MUTANTS.items()):
            real = getattr(module, name)
            setattr(module, name, mutant)
            print(label, t.failed_cases(suite, "p=5"))
            setattr(module, name, real)
        """)
    assert out.splitlines() == ["%s %s" % (label, SUITE_MUTANTS[label][4])
                                for label in sorted(SUITE_MUTANTS)]
