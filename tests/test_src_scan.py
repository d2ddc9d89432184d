"""`src/` holds what the library, the CLI and perfbench use.

An AST scan of `src/isogeny_kit` for top-level functions and classes, and
for methods, that nothing outside `tests/` reaches.  A function or class
counts as reached when its name is read (as a name, an attribute, an
import or an equal string constant) in another `src/` module, in its own
module outside its definition, or in a `perfbench/` file.  A method counts
as reached only by an attribute read or an equal string constant there:
a bare name such as the builtin `map` does not reach `Mat.map`.  A method
name that several classes share is reached for all of them by one read.
Test oracles belong in `tests/`, next to the tests that use them.

The scan reads a fixed tree, so `unreached`, `_used_errors` and `allowed`
each run once per pytest run.
"""

import ast
import functools
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "isogeny_kit"

# paper constructions that only tests check; each waits for a suite of its
# own, and a new suite name needs perfbench's reference.json regenerated
# first, since perfbench looks up every name in SUITES there
KEPT = {
    "wedge_space": "Lambda^2 F^4 with the wedge pairing, the ambient space "
                   "of the exterior-square propositions (tests/test_wedge.py)",
    "AlbertWedgeMap": "the Albert form of B (x) C carried into Lambda^2 by "
                      "right multiplication by S (tests/test_wedge.py)",
    "wedge_subspace": "the generators of the exterior-square subspace "
                      "propositions, split F, split E, iso and general cases "
                      "(tests/test_wedge.py)",
    "in_span": "membership in the F-span of those generators, which "
               "tests/test_wedge.py reads the propositions through",
    "dim7_space": "A^- + <delta>, the complement of ((0, -delta), (1, 0)) in "
                  "dimension 7 (tests/test_spin_eight.py)",
    "dim7_embed": "its embedding into A^- + H (tests/test_spin_eight.py)",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names_read(tree):
    """How often `tree` reads each name, and how often as an attribute or
    a string constant: (all reads, attribute reads)."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs[node.value] += 1
    return names + attrs, attrs


def _definitions(trees):
    """(module, label, name, node, is_method) for every top-level function
    and class and every method but the dunders."""
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs.append((module, node.name, node.name, node, False))
            if isinstance(node, ast.ClassDef):
                defs.extend((module, "%s.%s" % (node.name, sub.name), sub.name, sub, True)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("__"))
    return defs


@functools.cache
def unreached():
    """Labels of the `src/` definitions that no `src/` or `perfbench/` code
    reaches, in source order."""
    trees = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
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
            continue   # a method of a class reported already
        kind = 1 if is_method else 0
        outside_own = reads[module][kind][name] - _names_read(node)[kind][name]
        if not (outside_own or elsewhere[kind][name]
                or any(reads[other][kind][name] for other in trees if other != module)):
            out.append(label)
            if isinstance(node, ast.ClassDef):
                flagged_classes.add(name)
    return tuple(out)


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
    """KEPT, the names tests/test_acceptance.py imports from the library
    (its public API), and the exception classes of errors.py that `src/`
    raises, catches or subclasses."""
    names = set(KEPT)
    for node in ast.walk(_parse(ROOT / "tests" / "test_acceptance.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("isogeny_kit"):
            names.update(alias.name for alias in node.names)
    names.update(node.name for node in _parse(SRC / "errors.py").body
                 if isinstance(node, ast.ClassDef) and node.name in _used_errors())
    return frozenset(names)


def test_src_holds_no_test_only_definitions():
    extra = [label for label in unreached() if label not in allowed()]
    assert extra == [], "reached only from tests/ or from nowhere: %s" % extra


def test_kept_constructions_are_still_test_only():
    """A kept name that a suite or the CLI comes to use leaves KEPT."""
    found = set(unreached())
    assert sorted(name for name in KEPT if name not in found) == []


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


def test_only_exactfield_turns_q_values_into_ints():
    """`FieldDesc.ints` and `FieldDesc.scalars` are the one place where Q
    values become ints over one denominator and back: no other module
    names `_ints_over_lcm` or reads a `numerator` or `denominator`, and
    quadforms and towers name no `Fraction` (nor `fractions`) at all."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "exactfield":
            continue
        names, attrs = _names_read(_parse(path))
        no_fractions = ("Fraction", "fractions") if path.stem in ("quadforms", "towers") else ()
        bad = ([n for n in ("_ints_over_lcm",) + no_fractions if names[n]]
               + [a for a in ("numerator", "denominator") if attrs[a]])
        if bad:
            found[path.stem] = bad
    assert found == {}
    # the int view is still there, and the modules still use it
    assert {"ints", "scalars"} <= {node.name for node in ast.walk(_parse(SRC / "exactfield.py"))
                                   if isinstance(node, ast.FunctionDef)}
    for stem in ("linalg", "quadforms", "towers"):
        attrs = _names_read(_parse(SRC / ("%s.py" % stem)))[1]
        assert attrs["ints"] or attrs["scalars"], stem
