"""Every memo lives in its algebra's ``_cache``, is reached through
``PresentedAlgebra.memo`` and dies with the algebra.

A module-level dict would outlive the algebras whose modules it keys on and
keep them alive; the library keeps none.
"""

import ast
import gc
import subprocess
import sys
import weakref
from pathlib import Path

from tauslice import fixtures as fixdata
from tauslice.artheory import ar_quiver
from tauslice.modrep import decompose, direct_sum, hom_basis, projective, simple
from tauslice.tautilt import count_support_tau_tilting

ROOT = Path(__file__).resolve().parents[1]


def test_dropped_algebra_is_freed():
    a = fixdata.algebra("a3")
    assert ar_quiver(a).count == 6
    assert count_support_tau_tilting(a) == 14
    assert len(hom_basis(projective(a, "1"), simple(a, "1"))) == 1
    total, _incls, _projs = direct_sum(a, [simple(a, "1"), simple(a, "2")])
    assert len(decompose(total)) == 2
    refs = [weakref.ref(a), weakref.ref(a.opposite())]
    del a, total, _incls, _projs
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_memo_builds_once_per_key():
    a = fixdata.algebra("a2")
    calls = []

    def build(*args):
        calls.append(args)
        return list(args)

    first = a.memo(("probe", 1), build, 1, 2)
    assert a.memo(("probe", 1), build, 3, 4) is first
    assert (first, calls) == ([1, 2], [(1, 2)])
    assert a.memo(("probe", 2), build, 1, 2) is not first
    assert len(calls) == 2

    def nothing():
        calls.append(())

    # a stored None is a hit like any other value
    assert a.memo(("probe", 3), nothing) is None
    assert a.memo(("probe", 3), nothing) is None
    assert len(calls) == 3


def _cache_scopes():
    """(file, qualified scope) of every use of the attribute ``_cache`` in
    ``src/tauslice/*.py``."""
    found = set()

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "_cache":
                found.add((path.name, ".".join(scope)))
            inner = (scope + (child.name,) if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope)
            visit(child, inner, path)

    for path in sorted((ROOT / "src" / "tauslice").glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), (), path)
    return found


def test_the_memo_store_is_opened_only_by_memo():
    # every lookup goes through PresentedAlgebra.memo, so its policy (and
    # any count of hits and misses) lives in one place
    allowed = {("algebra.py", "PresentedAlgebra.__init__"),
               ("algebra.py", "PresentedAlgebra.memo")}
    scopes = _cache_scopes()
    assert sorted(scopes - allowed) == []
    assert allowed <= scopes


def _is_empty_dict(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "dict" and not node.args and not node.keywords)


def test_library_has_no_module_level_caches():
    found = []
    for path in sorted((ROOT / "src" / "tauslice").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in tree.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  and node.value is not None and _is_empty_dict(node.value)]
    assert found == []


def test_sibling_imports_are_used():
    # a name imported from a sibling module and never used is a leftover of
    # a deletion; __init__.py is exempt because it re-exports
    unused = []
    for path in sorted((ROOT / "src" / "tauslice").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{node.lineno}:{alias.asname or alias.name}"
                   for node in tree.body
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   for alias in node.names
                   if (alias.asname or alias.name) not in used]
    assert unused == []


def _copies_its_parameters(init):
    """Whether an ``__init__`` without defaults only sets ``self.x = x``."""
    args = init.args
    if args.defaults or args.vararg or args.kwarg or args.kwonlyargs or len(args.args) < 2:
        return False
    self_name, params = args.args[0].arg, {p.arg for p in args.args[1:]}
    body = init.body[1:] if ast.get_docstring(init) is not None else init.body

    def copies(stmt):
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            return False
        target, value = stmt.targets[0], stmt.value
        return (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                and target.value.id == self_name
                and isinstance(value, ast.Name) and value.id in params
                and target.attr == value.id)

    return bool(body) and all(map(copies, body))


def test_records_do_not_copy_their_fields_by_hand():
    # a class whose __init__ only stores its required arguments under their
    # own names is a record: it subclasses algebra.Record and names its
    # fields in __slots__ instead
    found = []
    for path in sorted((ROOT / "src" / "tauslice").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{item.lineno}:{node.name}"
                  for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  for item in node.body
                  if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                  and _copies_its_parameters(item)]
    assert found == []


def test_private_helpers_have_callers():
    # a private top-level function or class that nothing else in the package
    # names is a leftover of a deletion; uses inside its own body (recursion,
    # a class naming itself) do not count
    defined, used = [], set()
    for path in sorted((ROOT / "src" / "tauslice").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and owner.startswith("_") and not owner.endswith("__")):
                defined.append((path.name, stmt.lineno, owner))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != owner:
                    used.add(name)
    assert [f"{f}:{line}:{name}" for f, line, name in defined
            if name not in used] == []


def test_library_functions_have_callers():
    # the library holds only what runs: a module-level function that
    # nothing in the package or the scripts names (as a name, an attribute
    # or an import, a re-export in __init__.py included) is reached only
    # from the tests and belongs beside the oracles in tests/properties.py;
    # uses inside its own body (recursion) do not count
    package = sorted((ROOT / "src" / "tauslice").glob("*.py"))
    defined, used = [], set()
    for path in package + sorted((ROOT / "scripts").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            if path in package and isinstance(stmt, ast.FunctionDef):
                defined.append((path.name, stmt.lineno, owner))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias) else None)
                if name is not None and name != owner:
                    used.add(name)
    assert [f"{f}:{line}:{name}" for f, line, name in defined
            if name not in used] == []


def test_methods_have_callers():
    # a method that nothing in the source tree, the scripts or the
    # benchmark reads as an attribute is a leftover of a deletion, or is
    # reached only from the tests and belongs beside them; a bare name or a
    # string that happens to spell it is no call; dunder methods are called
    # by the protocol
    defined, used = [], set()
    for path in sorted((ROOT / "src" / "tauslice").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(path.name, item.lineno, item.name)
                    for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))]
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            used.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    assert [f"{f}:{line}:{name}" for f, line, name in defined
            if name not in used] == []


def test_record_fields_are_read():
    # a __slots__ field that nothing reads as an attribute, in the package,
    # the scripts or the tests, is work done for no reader
    fields = []
    for path in sorted((ROOT / "src" / "tauslice").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                fields += [(path.name, node.name, elt.value)
                           for stmt in node.body if isinstance(stmt, ast.Assign)
                           and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets)
                           for elt in ast.walk(stmt.value)
                           if isinstance(elt, ast.Constant) and isinstance(elt.value, str)]
    read = set()
    for folder in ("src", "scripts", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    assert [f"{f}:{cls}.{name}" for f, cls, name in fields if name not in read] == []


def _name_hits(names, skip=()):
    """file:line:name for every name, attribute such as ``.solve``, import
    or def in ``src/tauslice/*.py``, the files in ``skip`` aside, that is
    one of ``names``."""
    found = []
    for path in sorted((ROOT / "src" / "tauslice").glob("*.py")):
        if path.name in skip:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = next((getattr(node, f) for f in ("id", "attr", "name")
                         if isinstance(getattr(node, f, None), str)), None)
            if name in names:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}:{name}")
    return found


def test_coordinates_are_found_only_in_exactlin():
    # coordinates along a basis go through exactlin.coordinates_in_basis; a
    # direct solve or a coordinate helper elsewhere would be a second way
    assert _name_hits(("solve", "in_span", "morphism_coordinates"), skip=("exactlin.py",)) == []
    # and the general solve only where the basis has no unit columns, the
    # lift through the cover composites in artheory.syzygy_map; echelon
    # bases are read by exactlin.read_coordinates
    hits = _name_hits(("coordinates_in_basis",), skip=("exactlin.py",))
    assert [h.split(":")[0] for h in hits] == ["artheory.py"] * 2, hits  # import, call
    tree = ast.parse((ROOT / "src" / "tauslice" / "artheory.py").read_text())
    users = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if getattr(node, "id", None) == "coordinates_in_basis"}
    assert users == {"syzygy_map"}

def test_one_radical_routine():
    # the trace-form radical runs only on a single module's End, in
    # modrep._end_radical; quiverize takes the radical from its caller
    hits = _name_hits(("radical_span",), skip=("algebra.py",))
    assert [h.split(":")[0] for h in hits] == ["modrep.py"] * 2, hits  # import, call
    tree = ast.parse((ROOT / "src" / "tauslice" / "modrep.py").read_text())
    users = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if getattr(node, "id", None) == "radical_span"}
    assert users == {"_end_radical"}
    tree = ast.parse((ROOT / "src" / "tauslice" / "algebra.py").read_text())
    quiverize, = (fn for fn in tree.body if getattr(fn, "name", None) == "quiverize")
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(quiverize) if isinstance(node, ast.Call)}
    assert called & {"radical_span", "structure_constants"} == set()


def test_complements_are_found_only_in_exactlin():
    # a span is completed, and a quotient projected onto, only by
    # exactlin.null_space; these were the other ways
    assert _name_hits(("complement_basis", "intersect_row_spaces", "_null_space")) == []


def test_import_loads_no_dataclasses_inspect_or_argparse():
    # importing the package is most of a CLI command's cold start: records
    # are plain slotted classes, and argparse loads only with the parser.
    # A subprocess, because pytest itself has loaded all three
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import tauslice, tauslice.cli, tauslice.fixtures; "
            "print(*(m for m in ('dataclasses', 'inspect', 'argparse') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == []


def test_library_import_loads_no_cli():
    # the formats live below the command line: the package and its bundled
    # examples parse .alg / .rep files without loading tauslice.cli
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import tauslice, tauslice.fixtures; print('tauslice.cli' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["False"]


def test_tau_compatibility_builds_no_translate():
    # the clique search and is_tau_rigid decide Hom(N, tau M) = 0 by one
    # rank on M's minimal presentation, so they name no translate and no
    # Hom space; the clique verdicts live in the algebra's one memo store,
    # not in a dict of the search's own
    tree = ast.parse((ROOT / "src" / "tauslice" / "tautilt.py").read_text())
    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    for fn in functions:
        if fn.name in ("_tau_rigid_cliques", "is_tau_rigid"):
            named = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(fn)}
            assert named & {"tau", "hom_dim", "hom_basis"} == set(), fn.name
    assert [f"{fn.name}:{node.lineno}" for fn in functions for node in ast.walk(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            and node.id == "memo"] == []


def test_slice_searches_read_the_closure():
    # the searches test presections on the closure's node ids, arrows and
    # tau-links, so neither they nor the body of is_tilted's clique loop
    # re-read an AR neighbourhood or a translate from the modules; the
    # witness cross-check goes through is_complete_tau_slice, which reads
    # tau-rigidity pair by pair on the members and decomposes no sum
    tree = ast.parse((ROOT / "src" / "tauslice" / "tautilt.py").read_text())
    functions = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}

    def named(node):
        return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}

    loop, = [n for n in ast.walk(functions["is_tilted"]) if isinstance(n, ast.For)]
    searches = named(functions["find_complete_tau_slices"]) | named(loop)
    assert "_is_presection_on_ids" in searches
    assert searches & {"is_presection", "local_out_neighbors", "local_in_neighbors",
                       "decompose", "tau", "tau_inverse"} == set()
    assert named(functions["is_complete_tau_slice"]) & {"is_tau_tilting", "decompose"} == set()
