"""`src/` holds what the library, the CLI and perfbench use.

An AST scan of `src/isogeny_kit` for top-level functions, classes and
assignments, for methods, and for the attributes that methods store on
`self`, that nothing outside `tests/` reaches.  A function, class or
module-level name counts as reached when it is read (as a name, an
attribute, an import or an equal string constant) in another `src/`
module, in its own module outside its definition, or in a `perfbench/`
file.  A method or an instance attribute counts as reached only by an
attribute read or an equal string constant there: a bare name such as
the builtin `map` does not reach `Mat.map`.  A store is no read, and
neither is a `__slots__` entry.  Test oracles belong in `tests/`, next
to the tests that use them.

A read cannot tell apart the methods that several classes share a name
with (one `x.to_json()` reads every `to_json`), nor the operator dunders
that `a - b` or `a == b` call.  Those methods are checked by reachability
instead: a fixed traffic of `cli.main` calls and one Cartan-Dieudonne
round trip (what perfbench calls) runs under `sys.setprofile` in a fresh
interpreter, and each such method must be entered by it, keyed by (file,
co_qualname), or be listed in UNRUN with the reason it stays.  An UNRUN
entry that the traffic enters fails as well.

The scan reads a fixed tree and the traffic is fixed, so `unreached`,
`_used_errors`, `allowed`, `checked_methods` and `entered` each run once
per pytest run.
"""

import ast
import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

from tests_helpers import swap_gsp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "isogeny_kit"

# methods of the reachability pass that the traffic below never enters,
# each kept for the reason given
UNRUN = {
    "Scalar.__rsub__": "in perfbench/tracing.py's SCALAR_OPS, which it wraps "
                       "by name: int - Scalar",
    "Scalar.__rtruediv__": "in perfbench/tracing.py's SCALAR_OPS, which it "
                           "wraps by name: int / Scalar",
    "Scalar._coerce": "a Scalar with an int or a Fraction operand, which "
                      "tests and callers write; the traffic's Scalars all hold "
                      "the one descriptor of their field, so it passes none",
    "FieldDesc.__reduce__": "copy and pickle rebuild a descriptor through it as "
                            "the one object of its field (tests/test_exactfield.py)",
    "TableElem.inverse": "the regular-representation inverse that "
                         "tests/test_algebras.py checks BiquatElem.inverse against",
    "TableElem.__rsub__": "the tower and etale elements' ring operators, "
                          "c - x: tests/test_towers.py's ring axioms, inverse "
                          "and sympy-oracle tests (43 in all) run them",
    "TableElem.__rmul__": "c * x, as TableElem.__rsub__",
    "TableElem.__truediv__": "x / y, as TableElem.__rsub__",
    "AminusVector.x": "AminusVector.__repr__ reads it for failure records",
    "AminusVector.y": "AminusVector.__repr__ reads it for failure records",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names_read(tree):
    """How often `tree` reads each name, and how often as an attribute or
    a string constant: (all reads, attribute reads).  Stores, and the
    strings of a `__slots__` declaration, are not reads."""
    slots = {id(const) for node in ast.walk(tree)
             if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
             for const in ast.walk(node.value)}
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in slots):
            attrs[node.value] += 1
    return names + attrs, attrs


def _assigned(node):
    """The names that a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _self_stores(cls):
    """{attribute: first store node} of the `self.attribute = ...` stores in
    the methods of `cls`."""
    stores = {}
    for sub in cls.body:
        if isinstance(sub, ast.FunctionDef) and sub.args.args:
            me = sub.args.args[0].arg
            for node in ast.walk(sub):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == me):
                    stores.setdefault(node.attr, node)
    return stores


def _definitions(trees):
    """(module, label, name, node, is_method) for every top-level function,
    class and assigned name but the dunders, every method but the dunders,
    and every attribute that a method stores on `self` (as a method)."""
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            defs.extend((module, name, name, node, False) for name in _assigned(node)
                        if not name.startswith("__"))
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs.append((module, node.name, node.name, node, False))
            if isinstance(node, ast.ClassDef):
                defs.extend((module, "%s.%s" % (node.name, sub.name), sub.name, sub, True)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("__"))
                defs.extend((module, "%s.%s" % (node.name, attr), attr, store, True)
                            for attr, store in _self_stores(node).items())
    return defs


def scan(src):
    """Labels of the definitions in the modules of `src` that no `src/` or
    `perfbench/` code reaches, in source order."""
    trees = {path.stem: _parse(path) for path in sorted(src.glob("*.py"))}
    reads = {module: _names_read(tree) for module, tree in trees.items()}
    elsewhere = [Counter(), Counter()]
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for total, part in zip(elsewhere, _names_read(_parse(path))):
            total.update(part)
    # cli.main calls globals()["cmd_" + args.command] for each subcommand
    elsewhere[0].update("cmd_" + name for name in reads["cli"][0])
    out = []
    flagged_classes = set()
    for module, label, name, node, is_method in _definitions(trees):
        if label.split(".")[0] in flagged_classes:
            continue   # a method or attribute of a class reported already
        kind = 1 if is_method else 0
        outside_own = reads[module][kind][name] - _names_read(node)[kind][name]
        if not (outside_own or elsewhere[kind][name]
                or any(reads[other][kind][name] for other in trees if other != module)):
            out.append(label)
            if isinstance(node, ast.ClassDef):
                flagged_classes.add(name)
    return tuple(out)


@functools.cache
def unreached():
    """`scan` of `src/isogeny_kit`."""
    return scan(SRC)


@functools.cache
def _used_errors():
    """The errors.py classes that `src/` raises, catches or subclasses."""
    used = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                used.update(n.id for n in ast.walk(exc) if isinstance(n, ast.Name))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used.update(n.id for n in ast.walk(node.type) if isinstance(n, ast.Name))
            elif isinstance(node, ast.ClassDef):
                used.update(n.id for base in node.bases for n in ast.walk(base)
                            if isinstance(n, ast.Name))
    return frozenset(used)


@functools.cache
def allowed():
    """The names tests/test_acceptance.py imports from the library (its
    public API), and the exception classes of errors.py that `src/`
    raises, catches or subclasses."""
    names = set()
    for node in ast.walk(_parse(ROOT / "tests" / "test_acceptance.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("isogeny_kit"):
            names.update(alias.name for alias in node.names)
    names.update(node.name for node in _parse(SRC / "errors.py").body
                 if isinstance(node, ast.ClassDef) and node.name in _used_errors())
    return frozenset(names)


def test_src_holds_no_test_only_definitions():
    extra = [label for label in unreached() if label not in allowed()]
    assert extra == [], "reached only from tests/ or from nowhere: %s" % extra


def test_scan_sees_references():
    # names the library reaches in each of the ways the scan counts
    found = set(unreached())
    for name in ("reduced_norm_A",        # imported by another module
                 "_split_mat2",           # read in its own module
                 "_norm8_split_oracle",   # counted by name in perfbench
                 "cmd_census",            # dispatched by cli.main
                 "gsp_membership"):
        assert name not in found
    assert "GF" in found and "GF" in allowed()   # reached only from tests


def test_methods_are_reached_by_attribute_reads_only():
    names, attrs = _names_read(ast.parse("map(f, xs)\nm.apply(v)\ngetattr(m, 'col')"))
    assert names["map"] == 1 and attrs["map"] == 0
    assert attrs["apply"] == 1 and attrs["col"] == 1
    found = set(unreached())
    assert "Mat.apply" not in found and "QuadSpace.restrict" not in found
    used = _used_errors()
    assert {"IsogenyKitError", "SearchBudgetExceeded", "NoIsotropicVector"} <= used


def test_scan_catches_a_planted_constant_and_attribute(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    towers = tmp_path / "towers.py"
    line = "        self.dim = 1 << self.k\n"
    text = towers.read_text()
    assert line in text
    towers.write_text(text.replace(line, line + "        self.unread_gens = []\n")
                      + "\nUNREAD_NOTE = 'documentation only'\n")
    assert set(scan(tmp_path)) - set(unreached()) == {"UNREAD_NOTE", "QuadTower.unread_gens"}
    # a store and a __slots__ entry read nothing
    names, attrs = _names_read(ast.parse(
        "X = 1\nclass C:\n    __slots__ = ('a',)\n    def f(self):\n        self.b = 1\n"))
    assert names["X"] == attrs["a"] == attrs["b"] == 0


def fraction_users(src):
    """{module: offending names} for the modules of `src` other than
    exactfield that name `_ints_over_lcm`, `Fraction` or `fractions`, or
    read a `numerator` or `denominator`."""
    found = {}
    for path in sorted(src.glob("*.py")):
        if path.stem == "exactfield":
            continue
        names, attrs = _names_read(_parse(path))
        bad = ([n for n in ("_ints_over_lcm", "Fraction", "fractions") if names[n]]
               + [a for a in ("numerator", "denominator") if attrs[a]])
        if bad:
            found[path.stem] = bad
    return found


def test_only_exactfield_turns_q_values_into_ints():
    """`FieldDesc.ints` and `FieldDesc.scalars` are the one place where Q
    values become ints over one denominator and back, and Q Scalars hold
    ints: no other module names `_ints_over_lcm`, `Fraction` or
    `fractions`, or reads a `numerator` or `denominator`."""
    assert fraction_users(SRC) == {}


def test_fraction_rule_catches_a_planted_import(tmp_path):
    for stem, planted, want in (("linalg", "from fractions import Fraction\n", ["Fraction"]),
                                ("suites", "import fractions\n", ["fractions"])):
        (tmp_path / ("%s.py" % stem)).write_text(planted + (SRC / ("%s.py" % stem)).read_text())
        assert fraction_users(tmp_path)[stem] == want
    (tmp_path / "exactfield.py").write_text((SRC / "exactfield.py").read_text())
    assert "exactfield" not in fraction_users(tmp_path)
    # the int view is still there, and the modules still use it
    assert {"ints", "scalars"} <= {node.name for node in ast.walk(_parse(SRC / "exactfield.py"))
                                   if isinstance(node, ast.FunctionDef)}
    for stem in ("linalg", "quadforms", "towers"):
        attrs = _names_read(_parse(SRC / ("%s.py" % stem)))[1]
        assert attrs["ints"] or attrs["scalars"], stem


# -- reachability ---------------------------------------------------------

# dunders every class may define without the traffic calling them
UNCHECKED_DUNDERS = ("__init__", "__repr__", "__hash__")


@functools.cache
def checked_methods():
    """{(file stem, Class.name)} of the methods whose reads the scan cannot
    tell apart: those whose name two or more `src/` classes define, and
    the dunders but UNCHECKED_DUNDERS."""
    methods, owners = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        for cls in _parse(path).body:
            if isinstance(cls, ast.ClassDef):
                for sub in cls.body:
                    if isinstance(sub, ast.FunctionDef):
                        methods.append((path.stem, cls.name, sub.name))
                        owners[sub.name] += 1
    return frozenset((stem, "%s.%s" % (cls, name)) for stem, cls, name in methods
                     if (name not in UNCHECKED_DUNDERS if name.startswith("__")
                         else owners[name] > 1))


def _traffic_files(tmp):
    """The CLI's input files: one F_p and one Q form of classify_golden.json,
    the decompose input and one isometry per lift model, built as
    tests/test_cli.py builds them."""
    from isogeny_kit.algebras import BiquatAlg, QuatAlg
    from isogeny_kit.exactfield import GF
    from isogeny_kit.quadforms import random_isometry
    from isogeny_kit.spin_eight import vec8_space

    def write(name, obj):
        path = Path(tmp) / name
        path.write_text(json.dumps(obj))
        return str(path)

    def isometry(space, t):
        return {"field": "p=5", "gram": [[repr(e) for e in row] for row in space.gram.rows],
                "matrix": [[repr(e) for e in row] for row in t.matrix.rows]}

    golden = json.loads((ROOT / "tests" / "classify_golden.json").read_text())
    forms = [next(c for c in golden if c["field"] == spec and c["rc"] == 0)
             for spec in ("p=3", "Q")]
    f5 = GF(5)
    algebra = BiquatAlg(QuatAlg(f5, 2, -1), QuatAlg(f5, 1, 2))
    lifts = [("dim3", {"field": "p=5", "gram": [[-2, 0, 0], [0, 1, 0], [0, 0, -2]],
                       "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})]
    for model, space in (("dim6d1", algebra.albert_space()), ("dim8id1", vec8_space(algebra))):
        lifts.append((model, isometry(space, random_isometry(space, random.Random(0),
                                                              special=True))))
    return ([write("form%d.json" % i, {"field": c["field"], "gram": c["gram"]})
             for i, c in enumerate(forms)],
            write("gsp.json", swap_gsp()),
            [(model, write(model + ".json", obj)) for model, obj in lifts])


def _run_traffic():
    """[(file stem, co_qualname)] of the `src/` functions that the traffic
    enters, and the exit statuses of its CLI calls and its round trip:
    `verify all` over F_3, F_5 (seed 0) and Q (seed 2) at trials 2,
    `census 3 4`, two classify, one decompose and one lift per model, and
    one cartan_dieudonne -> compose_reflections round trip as perfbench
    makes them."""
    from isogeny_kit import cli
    from isogeny_kit.exactfield import GF
    from isogeny_kit.quadforms import (QuadSpace, cartan_dieudonne, compose_reflections,
                                       random_isometry)

    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        forms, gsp, lifts = _traffic_files(tmp)
        out = str(Path(tmp) / "out.json")
        argvs = [["verify", "all", "--field", field, "--seed", seed, "--trials", "2",
                  "--out", out] for field, seed in (("p=3", "0"), ("p=5", "0"), ("Q", "2"))]
        argvs += [["census", "3", "4", "--out", out], ["decompose", gsp, "--out", out]]
        argvs += [["classify", form, "--out", out] for form in forms]
        argvs += [["lift", path, "--model", model, "--B", "2,-1", "--C", "1,2"]
                  for model, path in lifts]
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                statuses = [cli.main(argv) for argv in argvs]
            f5 = GF(5)
            space = QuadSpace.diagonal(f5, [f5(1), f5(2), f5(3), f5(4)])
            t = random_isometry(space, random.Random(0), height=1)
            statuses.append(compose_reflections(space, cartan_dieudonne(t)) == t)
        finally:
            sys.setprofile(None)
    found = sorted({(Path(code.co_filename).stem, code.co_qualname) for code in codes
                    if Path(code.co_filename).parent == SRC})
    return found, statuses


@functools.cache
def entered():
    """`_run_traffic` in a fresh interpreter, as a CLI call starts: a cache
    that earlier tests filled (one restriction per equal algebra
    descriptor) would hide the methods that fill it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "tests"))))
    out = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    found, statuses = json.loads(out.stdout)
    return frozenset(map(tuple, found)), statuses

def test_cli_traffic_enters_every_shared_name_and_operator():
    """A method that two classes name alike, or an operator, that nothing
    runs is dead code the read scan cannot see: it is deleted, or UNRUN
    says why it stays."""
    found, statuses = entered()
    assert statuses == [0] * (len(statuses) - 1) + [True]
    missed = sorted(label for stem, label in checked_methods()
                    if (stem, label) not in found and label not in UNRUN)
    assert missed == [], "no traffic enters: %s" % ", ".join(missed)


def test_unrun_methods_are_still_unrun():
    """An UNRUN entry leaves once the traffic enters it, or once its method
    is gone or has a name of its own (the read scan's then)."""
    found, _ = entered()
    labels = {label for _, label in checked_methods()}
    stale = sorted(label for label in UNRUN
                   if label not in labels or any(label == lab for _, lab in found))
    assert stale == [], "UNRUN entries the traffic enters or the pass does not check: %s" \
        % ", ".join(stale)


def test_reachability_pass_sees_the_traffic():
    found, _ = entered()
    checked = checked_methods()
    # two operators and a name four classes share
    for key in (("exactfield", "Scalar.__add__"), ("linalg", "Mat.__eq__"),
                ("spin_eight", "Vec8.scale")):
        assert key in found and key in checked
    assert ("linalg", "Mat.__init__") not in checked
    # a method with a name of its own stays with the read scan
    restrict = ("quadforms", "QuadSpace.restrict")
    assert restrict in found and restrict not in checked


if __name__ == "__main__":
    print(json.dumps(_run_traffic()))
