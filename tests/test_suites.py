"""The named verification suites, their determinism, and the mutation
harness (every single-sign flip in theta, D, or the psi diagonal rule
must make a named suite fail)."""

import pytest

from isogeny_kit import algebras, spin_eight, spin_six, suites
from isogeny_kit.algebras import AminusVector
from isogeny_kit.errors import UnknownSuite
from isogeny_kit.suites import SUITES, RunConfig, run_all, run_suite

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


def test_suites_deterministic():
    r1 = run_suite("normsq", FAST_CONFIG)
    r2 = run_suite("normsq", FAST_CONFIG)
    assert r1.cases == r2.cases and r1.failures == r2.failures


def test_dim7rd_redraws_after_stabilizer_shortfall(monkeypatch):
    # at p=3, seed 0, none of the first three generators lies in GSp
    config = RunConfig.from_args("p=3", seed=0, trials=3)
    res = run_suite("dim7rd", config)
    assert res.passed, res.failures[:3]
    assert res.cases > 1
    # once the redraws run out, the shortfall is still a failure
    monkeypatch.setattr(suites, "DIM7RD_EXTRA_DRAWS", 0)
    res = run_suite("dim7rd", config)
    assert [f["case"] for f in res.failures] == ["sampled-any-stabilizers"]


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


def test_mutation_d_flip_pairing_sign(monkeypatch):
    def bad_d(eta, omega):
        ring = eta.algebra.ring
        pr = algebras.albert_pair(eta, algebras.theta(omega))
        return ring.one() - pr - pr + \
            algebras.albert_norm(omega) * algebras.albert_norm(eta)
    monkeypatch.setattr(spin_eight, "D", bad_d)
    assert not all(run_mutation_suites().values())


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
