"""Source hygiene: the benchmark's per-layer spans resolve, no import is unused,
``check_axioms`` keeps the positional arguments the benchmark reads,
every one-letter right product goes through the oracle's out-edge table,
importing the CLI loads no ``dataclasses`` machinery, the generation
certificates build no cell set, extraction takes no set distance of its
own, the README's spec schema names exactly the keys the loader reads, and
no module spells a Fraction out as ``[numerator, denominator]``, which is
``cli._encode``'s to write, and the five-case kernel and Γ's table read
word distances only through the one encoding of their order.

The traced benchmark wraps every public function and public method of the
``monoidgeo`` modules in a span named ``<module>.<name>`` and flags a run as
incorrect when a per-layer metric in ``BENCHMARK.json`` names a span that is
not a wrapped function.  So a public definition the metrics name must not be
deleted or made private, even when no command reaches it.
"""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "monoidgeo")
SPAN_QUANTITIES = ("calls", "self_s", "maxrss_growth_mb")


def _spans(names=None) -> list[str]:
    """The spans that per-layer metric names (default: BENCHMARK.json's) read:
    ``<module>.<name>`` of each metric that ends in a span quantity."""
    if names is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
    spans = set()
    for name in names:
        span, _, quantity = name.rpartition(".")
        if quantity in SPAN_QUANTITIES:
            spans.add(span)
    return sorted(spans)


def _public_callables(mod) -> set[str]:
    """The names the tracer wraps in `mod`: public functions defined there and
    public methods (plain or static) of the classes defined there."""
    out = set()
    for attr, value in vars(mod).items():
        if attr.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == mod.__name__:
            out.add(attr)
        elif inspect.isclass(value) and value.__module__ == mod.__name__:
            for cattr, raw in vars(value).items():
                if not cattr.startswith("_") and (inspect.isfunction(raw) or isinstance(raw, staticmethod)):
                    out.add(cattr)
    return out


def _resolves(span: str) -> bool:
    module, _, name = span.partition(".")
    try:
        mod = importlib.import_module(f"monoidgeo.{module}")
    except ImportError:
        return False
    return name in _public_callables(mod)


@pytest.mark.parametrize("span", _spans())
def test_per_layer_span_is_a_public_callable(span):
    assert _resolves(span), f"{span} names no public function or method in src/"


PLANTED_SPANS = {
    "cayley.word_distance": True,  # a public function defined there
    "monoids.multiply": True,  # a public method of a class defined there
    "svarcmilnor.compute_contact_set": False,  # imported there, defined in actions
    "svarcmilnor._displacement": False,  # private
    "monoids.SubmonoidOracle": False,  # a class, which the tracer does not wrap
    "actions.min_positive_separation": False,  # no such definition
    "nomodule.word_distance": False,  # no such module
}


def test_span_check_flags_planted_names():
    assert {span: _resolves(span) for span in PLANTED_SPANS} == PLANTED_SPANS
    metrics = ["m.f.calls", "m.g.self_s", "m.g.maxrss_growth_mb", "m.h.distinct_ratio", "trace.wall_s"]
    assert _spans(metrics) == ["m.f", "m.g"]


def _unused_imports(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _module_loads(tree)
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def _local_names(fn) -> set[str]:
    """The names a function or lambda binds in its own scope: its parameters,
    the names it assigns or catches, and the functions and classes it
    defines, less those it declares global or nonlocal.  A name it imports
    is left out, so a load of it counts as a use of that import."""
    a = fn.args
    names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x}
    declared = set()
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)  # its body is another scope
        elif not isinstance(node, ast.Lambda):
            todo.extend(ast.iter_child_nodes(node))
    return names - declared


def _module_loads(tree) -> set[str]:
    """The names loaded somewhere they resolve to the module: a load inside a
    function that binds the name, or inside a function nested in one that
    does, reads the local and does not use a module-level import."""
    used = set()

    def visit(node, bound):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            used.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Decorators, defaults and annotations are evaluated outside.
            inner = bound | _local_names(node)
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in ast.iter_child_nodes(node):
                visit(child, inner if child in body else bound)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return used


@pytest.mark.parametrize(
    "module",
    sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py")
    + sorted(f"tests/{f}" for f in os.listdir(HERE) if f.endswith(".py")),
)
def test_no_unused_import(module):
    # The package's __init__.py is exempt: its imports are its public names.
    path = os.path.join(ROOT, module) if module.startswith("tests/") else os.path.join(PACKAGE, module)
    assert _unused_imports(path) == []


SHADOWED = """\
import os
from dataclasses import field


def sep():
    return os.sep


def first(xs):
    field = xs[0]
    return field
"""


def test_unused_import_check_ignores_a_local_of_the_same_name(tmp_path):
    path = tmp_path / "shadowed.py"
    path.write_text(SHADOWED, encoding="utf-8")
    assert _unused_imports(str(path)) == ["field (line 2)"]


def test_check_axioms_takes_space_and_sample_first():
    # The benchmark's sample-size wrapper and its tracer read these two
    # arguments by position.
    from monoidgeo.spaces import check_axioms

    params = list(inspect.signature(check_axioms).parameters.values())[:2]
    assert [(p.name, p.kind) for p in params] == [
        ("space", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("sample", inspect.Parameter.POSITIONAL_OR_KEYWORD),
    ]


def _one_letter_multiplies(path: str) -> list[str]:
    """Calls multiply(x, (s,)) outside a function named ``successors``: any
    call of a ``multiply`` whose second argument holds a one-item tuple or
    list literal, such as ``(s,)`` or ``() if ... else (g,)``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == "successors"
        if isinstance(node, ast.Call) and not inside and len(node.args) >= 2:
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if name == "multiply" and any(
                isinstance(n, (ast.Tuple, ast.List)) and len(n.elts) == 1 for n in ast.walk(node.args[1])
            ):
                found.append(f"line {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


@pytest.mark.parametrize("module", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_one_letter_products_read_the_out_edge_table(module):
    # MonoidOracle.successors computes each m·s once per oracle; a product
    # computed anywhere else is computed again for every caller.
    assert _one_letter_multiplies(os.path.join(PACKAGE, module)) == []


ONE_LETTER = """\
class Oracle:
    def successors(self, m):
        return tuple(self.multiply(m, (s,)) for s in self.generators)


def step(oracle, m, s, g):
    a = oracle.multiply(m, (s,))
    b = oracle.multiply(m, () if g is None else (g,))
    c = oracle.multiply(m, s)
    return a, b, c
"""


def test_one_letter_multiply_check_flags_products_outside_successors(tmp_path):
    path = tmp_path / "one_letter.py"
    path.write_text(ONE_LETTER, encoding="utf-8")
    assert _one_letter_multiplies(str(path)) == ["line 7", "line 8"]


# Each CLI run is a short process, so start-up is part of every command's
# cost: ``import dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
# ``tokenize``, and each decorated class execs its generated methods.
START_UP_FREE = ("dataclasses", "inspect")


def test_cli_import_loads_no_dataclasses_machinery():
    code = f"import sys, monoidgeo.cli; print([m for m in {START_UP_FREE!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def _dataclasses_imports(path: str) -> list[str]:
    """Every ``import dataclasses`` or ``from dataclasses import ...``, at any depth."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names):
            found.append(f"line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
            found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("module", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_no_dataclasses_import(module):
    assert _dataclasses_imports(os.path.join(PACKAGE, module)) == []


DATACLASSES = """\
import dataclasses
from dataclasses import dataclass, field
import os, dataclasses as dc


def late():
    from dataclasses import replace
    return replace


class Point:
    dataclass = None
"""


def test_dataclasses_import_check_flags_every_form(tmp_path):
    path = tmp_path / "uses_dataclasses.py"
    path.write_text(DATACLASSES, encoding="utf-8")
    assert _dataclasses_imports(str(path)) == ["line 1", "line 2", "line 3", "line 7"]


# The generation walk covers each sample vertex v by construction, with some
# v·t⁻¹, so the certificates need no translate of B and no other cell set.
WALK_DEFINITIONS = ("_Walk", "verify_generation_bound")
CELL_SET_NAMES = ("Translates", "translate", "translates", "CellSet")


def _cell_set_uses(path: str, definitions=WALK_DEFINITIONS, names=CELL_SET_NAMES) -> list[str]:
    """Each name or attribute in `names` inside the module-level definitions
    named `definitions`, and each of them that is missing."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found, seen = [], set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in definitions:
            seen.add(node.name)
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name in names:
                    found.append(f"{node.name}: {name} (line {sub.lineno})")
    return found + [f"{name}: missing" for name in definitions if name not in seen]


def test_generation_certificates_build_no_cell_set():
    assert _cell_set_uses(os.path.join(PACKAGE, "svarcmilnor.py")) == []


CELL_SETS = """\
from monoidgeo.cayley import CellSet, Translates


class _Walk:
    def cover(self, v):
        return self.report.translates[v]

    def ball(self):
        return CellSet([()])


def verify_generation_bound(report, inp):
    return Translates(inp.monoid, report.ball)


def extract_generators(inp):
    return Translates(inp.monoid, CellSet([()])).B.translate(inp.monoid, ())
"""


def test_cell_set_check_flags_planted_uses(tmp_path):
    path = tmp_path / "cell_sets.py"
    path.write_text(CELL_SETS, encoding="utf-8")
    assert _cell_set_uses(str(path), WALK_DEFINITIONS + ("absent",)) == [
        "_Walk: translates (line 6)",
        "_Walk: CellSet (line 9)",
        "verify_generation_bound: Translates (line 13)",
        "absent: missing",
    ]


# Extraction takes every set distance through compute_contact_set, which the
# benchmark spans, on the ball of radius ceil(3R) - 1: Q, r and both claims
# are read off those separations.
SET_DISTANCE_NAMES = ("gamma_set_distance", "set_distance", "CellSet")


def test_extraction_takes_set_distances_only_through_the_contact_set():
    path = os.path.join(PACKAGE, "svarcmilnor.py")
    assert _cell_set_uses(path, ("extract_generators",), SET_DISTANCE_NAMES) == []


SET_DISTANCES = """\
from monoidgeo.cayley import CellSet, gamma_set_distance


def compute_contact_set(translates, gamma, radius):
    return gamma.set_distance(translates.B, translates.B, 1)


def extract_generators(inp):
    center = CellSet([()])
    ring = gamma_set_distance(inp.gamma.monoid, center, center, 8)
    return inp.gamma.set_distance(center, center, 8), ring
"""


def test_set_distance_check_flags_planted_uses(tmp_path):
    path = tmp_path / "set_distances.py"
    path.write_text(SET_DISTANCES, encoding="utf-8")
    assert sorted(_cell_set_uses(str(path), ("extract_generators",), SET_DISTANCE_NAMES)) == [
        "extract_generators: CellSet (line 9)",
        "extract_generators: gamma_set_distance (line 10)",
        "extract_generators: set_distance (line 11)",
    ]
    assert _cell_set_uses(str(path), ("extract_generators", "run_pipeline"), SET_DISTANCE_NAMES)[-1] == (
        "run_pipeline: missing"
    )


def _schema_keys(readme: str) -> set[str]:
    """The keys named in the first jsonc block after the spec heading."""
    section = readme.split("## Monoid spec documents", 1)[1]
    block = section.split("```jsonc", 1)[1].split("```", 1)[0]
    return set(re.findall(r'"(\w+)":', block))


def test_readme_spec_schema_names_the_keys_the_loader_reads():
    from monoidgeo.monoids import _SPEC_TYPES

    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        keys = _schema_keys(fh.read())
    assert keys == set(_SPEC_TYPES) | {"type", "group"}


def test_schema_key_check_reads_only_the_spec_block():
    readme = '{"a": 1}\n## Monoid spec documents\n```jsonc\n{"type": "t", "b": [1]}\n```\n{"c": 2}\n'
    assert _schema_keys(readme) == {"type", "b"}


def _fraction_spellings(path: str) -> list[str]:
    """Each two-item list ``[x.numerator, x.denominator]``: a Fraction written
    out by hand, where ``cli._encode`` writes the one wire format for it."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.List)
        and [getattr(e, "attr", None) for e in node.elts] == ["numerator", "denominator"]
    ]
    return [f"line {n}" for n in sorted(lines)]


@pytest.mark.parametrize("module", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_reports_pass_fractions_to_the_encoder_as_they_are(module):
    assert _fraction_spellings(os.path.join(PACKAGE, module)) == []


FRACTION_SPELLINGS = """\
def report(r, l, bound):
    a = [r.numerator, r.denominator]
    b = [l.denominator, l.numerator]
    p, q = l.numerator, l.denominator
    c = [r.numerator, r.denominator, 1]
    return {"r": a, "bound": [bound.numerator,
                              bound.denominator]}
"""


def test_fraction_spelling_check_flags_planted_lists(tmp_path):
    path = tmp_path / "fraction_spellings.py"
    path.write_text(FRACTION_SPELLINGS, encoding="utf-8")
    assert _fraction_spellings(str(path)) == ["line 2", "line 6"]


# Every five-case minimum keeps truncated_min's order through one encoding,
# cayley._encoded; the kernel and the table must not read a word distance
# and rank known values and bounds by hand.
ENCODED_READERS = ("_base_pair_distance", "GammaOracle.distance_rows")


def _direct_word_distances(path: str, definitions=ENCODED_READERS) -> list[str]:
    """Each ``word_distance`` call inside the named definitions (``f`` or
    ``Class.f``), each of them that calls no ``_encoded`` or is missing, and
    each line of the module that names ``best_known``."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, path)
    functions = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            functions.update((f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef))
    found = []
    for name in definitions:
        if name not in functions:
            found.append(f"{name}: missing")
            continue
        calls = [n for n in ast.walk(functions[name]) if isinstance(n, ast.Call)]
        called = [(getattr(c.func, "id", None) or getattr(c.func, "attr", None), c.lineno) for c in calls]
        found += [f"{name}: word_distance (line {line})" for f, line in called if f == "word_distance"]
        if all(f != "_encoded" for f, _ in called):
            found.append(f"{name}: no _encoded")
    lines = enumerate(source.splitlines(), 1)
    return found + [f"best_known (line {i})" for i, line in lines if "best_known" in line]


def test_five_case_minima_read_word_distances_through_the_encoding():
    assert _direct_word_distances(os.path.join(PACKAGE, "cayley.py")) == []


DIRECT_READS = """\
def _encoded(oracle, s, t, scale, horizon):
    return word_distance(oracle, s, t, horizon)


def _base_pair_distance(oracle, sources, targets, best, scale, horizon):
    best_known = best is not None
    d = cayley.word_distance(oracle, sources[0], targets[0], horizon)
    return min(best, d), best_known


class GammaOracle:
    def distance_rows(self, sample):
        return [[_encoded(self.monoid, p, q, 1, 8) for q in sample] for p in sample]
"""


def test_encoding_check_flags_planted_reads(tmp_path):
    path = tmp_path / "direct_reads.py"
    path.write_text(DIRECT_READS, encoding="utf-8")
    assert _direct_word_distances(str(path), ENCODED_READERS + ("GammaOracle.absent",)) == [
        "_base_pair_distance: word_distance (line 7)",
        "_base_pair_distance: no _encoded",
        "GammaOracle.absent: missing",
        "best_known (line 6)",
        "best_known (line 8)",
    ]
