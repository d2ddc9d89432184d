"""The command-line front end: round trips, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from isogeny_kit import cli
from isogeny_kit.cli import main
from tests_helpers import swap_gsp

RUN = [sys.executable, "-m", "isogeny_kit.cli"]


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_classify_hyperbolic(tmp_path, capsys):
    path = write(tmp_path, "h.json", {"field": "Q", "gram": [[0, 1], [1, 0]]})
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "dim 2" in out and "disc 1" in out and "witt 1" in out


def test_classify_f3_diag111(tmp_path, capsys):
    path = write(tmp_path, "s.json",
                 {"field": "p=3", "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "witt 1" in out and "kernel dim 1" in out


def test_classify_degenerate(tmp_path, capsys):
    path = write(tmp_path, "bad.json",
                 {"field": "p=3", "gram": [[1, 1], [1, 1]]})
    assert main(["classify", path]) == 2
    assert "DegenerateSpace" in capsys.readouterr().err


def test_verify_unknown_suite(capsys):
    assert main(["verify", "bogus"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_runs_and_reports(tmp_path, capsys):
    out = str(tmp_path / "report.jsonl")
    code = main(["verify", "BEpol,Sadjt", "--field", "p=3", "--trials", "10",
                 "--seed", "7", "--out", out])
    assert code == 0
    lines = open(out).read().strip().split("\n")
    summary = json.loads(lines[-1])
    assert summary["passed"] is True
    assert {s["suite"] for s in summary["suites"]} == {"BEpol", "Sadjt"}


def test_verify_all_over_q_exits_0(tmp_path, capsys):
    """Every suite over Q at the one seed that ROADMAP item 2's
    trial-division crash spares."""
    out = str(tmp_path / "report.jsonl")
    assert main(["verify", "all", "--field", "Q", "--seed", "2", "--trials", "8",
                 "--out", out]) == 0
    summary = json.loads(open(out).read().strip().split("\n")[-1])
    assert summary["passed"] is True and len(summary["suites"]) == 42


def test_verify_deterministic(tmp_path):
    out1 = str(tmp_path / "r1.jsonl")
    out2 = str(tmp_path / "r2.jsonl")
    for out in (out1, out2):
        assert main(["verify", "normsq,vnorm8", "--field", "p=3",
                     "--trials", "15", "--seed", "3", "--out", out]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_decompose_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "gsp.json", swap_gsp())
    assert main(["decompose", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["multiplier"] == "1"
    assert report["phi"] == "1"


def test_decompose_reassembly_failure_exits_2(tmp_path, capsys, monkeypatch):
    # a generic form that reassembles to the wrong matrix is an error, not
    # a report
    from isogeny_kit import spin_eight
    monkeypatch.setattr(spin_eight.GenForm, "assemble",
                        lambda self: spin_eight.M2A.identity(self.A))
    path = write(tmp_path, "gsp.json", swap_gsp())
    assert main(["decompose", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "InvariantViolated: generic form failed to reassemble" in captured.err


def test_decompose_non_member(tmp_path, capsys):
    blocks = [[0] * 16 for _ in range(4)]
    blocks[0][0] = 1
    blocks[1][5] = 1   # i (x) i in the b-block
    blocks[3][0] = 1
    path = write(tmp_path, "bad.json",
                 {"field": "p=5", "B": [2, -1], "C": [1, 2], "blocks": blocks})
    assert main(["decompose", path]) == 1


@pytest.mark.parametrize("change,error", [
    ({"C": None}, "ParseError: bad GSp JSON: 'C'"),
    ({"B": [2, "x"]}, "ParseError: bad GSp JSON: Invalid literal for Fraction: 'x'"),
    ({"blocks": [[1, 0]] + [[0] * 16] * 3},
     "DimensionMismatch: 2 coefficients for an algebra of rank 16"),
    ({"blocks": [[0] * 16] * 3}, "ParseError: bad GSp JSON: "),
    ({"field": "p=4"}, "ParseError: bad field spec 'p=4'"),
], ids=["missing-C", "bad-symbol-entry", "short-block", "three-blocks", "bad-field"])
def test_decompose_bad_input_is_a_named_error(change, error, tmp_path, capsys):
    path = write(tmp_path, "gsp.json", swap_gsp(**change))
    assert main(["decompose", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + error)


def test_lift_dim3(tmp_path, capsys):
    # identity isometry of B_0 for B = (2, -1) over F5
    path = write(tmp_path, "iso.json", {
        "field": "p=5",
        "gram": [[-2, 0, 0], [0, 1, 0], [0, 0, -2]],
        "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    })
    assert main(["lift", path, "--model", "dim3", "--B", "2,-1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["model"] == "dim3"


def test_lift_dim6d1(tmp_path, capsys):
    from isogeny_kit.exactfield import GF
    from isogeny_kit.algebras import BiquatAlg, QuatAlg
    from isogeny_kit.quadforms import random_isometry
    import random
    field = GF(5)
    algebra = BiquatAlg(QuatAlg(field, 2, -1), QuatAlg(field, 1, 2))
    space = algebra.albert_space()
    t = random_isometry(space, random.Random(0), special=True)
    path = write(tmp_path, "iso6.json", {
        "field": "p=5",
        "gram": [[repr(e) for e in row] for row in space.gram.rows],
        "matrix": [[repr(e) for e in row] for row in t.matrix.rows],
    })
    assert main(["lift", path, "--model", "dim6d1", "--B", "2,-1",
                 "--C", "1,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["model"] == "dim6d1"


def test_census_cli(tmp_path, capsys):
    out = str(tmp_path / "census.json")
    assert main(["census", "3", "3", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "24" in text
    data = json.loads(open(out).read())
    assert data["field"] == "p=3"
    rows = {(r["dim"], r["disc"]): r for r in data["rows"]}
    assert rows[(3, "1")]["SO"] == 24


def test_main_builds_one_parser_and_finds_patched_handlers(monkeypatch, capsys):
    built = []

    def counting_build_parser():
        built.append(real_build())
        return built[-1]
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    assert main(["census", "3", "2"]) == 0
    monkeypatch.setattr(cli, "cmd_census", lambda args: 7 if args.p == 5 else -1)
    assert main(["census", "5", "2"]) == 7
    assert len(built) == 1 and cli._parser is built[0]


def test_console_entry_point():
    proc = subprocess.run(RUN + ["verify", "Sadjt", "--field", "p=3",
                                 "--trials", "5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Sadjt" in proc.stdout


@pytest.mark.parametrize("spec", ["p=2", "p=9", "R"])
def test_verify_bad_field_is_a_named_error(spec, capsys):
    assert main(["verify", "ref2", "--field", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ParseError: bad field spec %r" % spec)


@pytest.mark.parametrize("args,message", [
    (["2", "3"], "census runs over an odd prime field, not p = 2"),
    (["-3", "3"], "census runs over an odd prime field, not p = -3"),
    (["3", "7"], "census covers dimensions 1-6, not 7"),
])
def test_census_bad_arguments_are_named_errors(args, message, capsys):
    assert main(["census"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: BadParameters: %s\n" % message


def test_classify_empty_gram_is_a_named_error(tmp_path, capsys):
    path = write(tmp_path, "empty.json", {"field": "p=5", "gram": []})
    assert main(["classify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: ParseError: bad quadratic-space JSON: "
                            "empty Gram matrix\n")


def test_zero_quaternion_symbol_is_a_named_error(tmp_path, capsys):
    iso = write(tmp_path, "iso.json", {
        "field": "p=5", "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    gsp = write(tmp_path, "gsp.json", {"field": "p=5", "B": [0, 1], "C": [1, 2],
                                       "blocks": [[0] * 16 for _ in range(4)]})
    for argv in (["lift", iso, "--model", "dim3", "--B", "0,1"],
                 ["decompose", gsp]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: BadParameters: quaternion symbol "
                                "entries must be nonzero\n")


@pytest.mark.parametrize("argv", [
    ["--model", "dim3", "--B", "3,2"],    # model space diag(2, 3, 1)
    ["--model", "dim3"],                  # model space diag(1, 1, 1)
    ["--model", "dim6d1", "--B", "2,-1", "--C", "1,2"],
    ["--model", "dim8id1", "--B", "2,-1", "--C", "1,2"],
])
def test_lift_off_the_model_space_is_a_named_error(argv, tmp_path, capsys):
    path = write(tmp_path, "iso.json", {
        "field": "p=5", "gram": [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
        "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    assert main(["lift", path] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: BadParameters: the isometry's Gram "
                                   "matrix is not the model's space")


def test_classify_exhausted_search_is_a_named_error(tmp_path, capsys):
    """<1, 7, -58> over Q is isotropic, (15, 1, 2), past the default height
    10: classify exits 2 instead of reporting witt 0."""
    path = write(tmp_path, "t.json", {"field": "Q", "gram": [[1, 0, 0], [0, 7, 0], [0, 0, -58]]})
    assert main(["classify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: SearchBudgetExceeded: "
                            "no isotropic vector found within budget\n")


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "classify_golden.json")
with open(GOLDEN) as _fh:
    GOLDEN_CASES = json.load(_fh)


@pytest.mark.parametrize("case", GOLDEN_CASES,
                         ids=["%d-%s" % (i, c["field"]) for i, c in enumerate(GOLDEN_CASES)])
def test_classify_output_is_unchanged(case, tmp_path, capsys):
    """`classify --out` over F_3, F_5, F_7 and Q, on diagonal and dense
    Gram matrices (some degenerate, one not symmetric), byte for byte
    against classify_golden.json: the stdout, stderr, exit status and
    report of the library before QuadSpace held its form as ints."""
    path = write(tmp_path, "space.json", {"field": case["field"], "gram": case["gram"]})
    out = tmp_path / "out.json"
    assert main(["classify", path, "--out", str(out)]) == case["rc"]
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (case["stdout"], case["stderr"])
    assert (out.read_text() if out.exists() else None) == case["out"]


def test_golden_keeps_the_q_form_whose_isotropic_vector_is_missed():
    """Its e_3 is isotropic, but the search runs in diagonalize's basis and
    runs out: a named error, exit 2, never a wrong Witt index."""
    case = next(c for c in GOLDEN_CASES
                if c["gram"] == [[6, -2, -2], [-2, 3, 0], [-2, 0, 0]])
    assert case["field"] == "Q" and case["rc"] == 2 and case["out"] is None
    assert "SearchBudgetExceeded" in case["stderr"]


@pytest.mark.parametrize("argv", [["classify"], ["decompose"], ["lift", "--model", "dim3"]],
                         ids=["classify", "decompose", "lift"])
def test_missing_or_unreadable_input_is_a_named_error(argv, tmp_path, capsys):
    """An input path that does not exist, or names a directory, exits 2
    with UnreadableInput; a file that is not JSON exits 2 with ParseError."""
    missing = str(tmp_path / "never_written.json")
    assert main(argv[:1] + [missing] + argv[1:]) == 2
    assert capsys.readouterr().err == ("error: UnreadableInput: cannot read %s: "
                                       "No such file or directory\n" % missing)
    assert main(argv[:1] + [str(tmp_path)] + argv[1:]) == 2
    assert capsys.readouterr().err.startswith("error: UnreadableInput: cannot read %s: "
                                              % tmp_path)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(argv[:1] + [str(garbled)] + argv[1:]) == 2
    assert capsys.readouterr().err.startswith("error: ParseError: %s is not JSON: " % garbled)
