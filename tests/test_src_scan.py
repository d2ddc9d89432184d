"""`src/` holds what the library, the CLI and perfbench use.

An AST scan of `src/isogeny_kit` for top-level functions and classes, and
for the methods whose name is defined only once in `src/` (a shared name
such as `matrix` cannot be traced by name), that nothing outside `tests/`
reaches.  A definition counts as reached when its name is read (as a name,
an attribute, an import or an equal string constant) in another `src/`
module, in its own module outside its definition, or in a `perfbench/`
file.  Test oracles belong in `tests/`, next to the tests that use them.
"""

import ast
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
    """How often `tree` reads each name."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _definitions(trees):
    """(module, label, name, node) for every top-level function and class,
    and every method whose name no other definition in `src/` shares."""
    counts = Counter(node.name for tree in trees.values() for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs.append((module, node.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs.extend((module, "%s.%s" % (node.name, sub.name), sub.name, sub)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("__")
                            and counts[sub.name] == 1)
    return defs


def unreached():
    """Labels of the `src/` definitions that no `src/` or `perfbench/` code
    reaches, in source order."""
    trees = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    reads = {module: _names_read(tree) for module, tree in trees.items()}
    elsewhere = Counter()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        elsewhere.update(_names_read(_parse(path)))
    # cli.main calls globals()["cmd_" + args.command] for each subcommand
    elsewhere.update("cmd_" + name for name in reads["cli"])
    out = []
    flagged_classes = set()
    for module, label, name, node in _definitions(trees):
        if label.split(".")[0] in flagged_classes:
            continue   # a method of a class reported already
        outside_own = reads[module][name] - _names_read(node)[name]
        if not (outside_own or elsewhere[name]
                or any(reads[other][name] for other in trees if other != module)):
            out.append(label)
            if isinstance(node, ast.ClassDef):
                flagged_classes.add(name)
    return out


def allowed():
    """KEPT, the names tests/test_acceptance.py imports from the library
    (its public API), and the exception classes of errors.py."""
    names = set(KEPT)
    for node in ast.walk(_parse(ROOT / "tests" / "test_acceptance.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("isogeny_kit"):
            names.update(alias.name for alias in node.names)
    names.update(node.name for node in _parse(SRC / "errors.py").body
                 if isinstance(node, ast.ClassDef))
    return names


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
