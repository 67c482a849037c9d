"""Source hygiene of ``src/gptgeom``, read with ``ast``: no unused imports,
no import inside a function body, no private module-level name (a
function, class or assigned value) that nothing references, and no public
function, class or method that only tests reach, so deletions leave no
dead helpers behind."""
import ast
import re
from collections import Counter
from pathlib import Path

import gptgeom

SRC = Path(gptgeom.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
MODULES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _references(nodes) -> Counter:
    """Names read by plain name or attribute, and names imported by name."""
    refs = Counter()
    for node in nodes:
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def test_no_unused_imports():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":  # its imports are the package's exports
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{name}:{line} {alias}" for alias, line in imported.items()
                   if alias not in used]
    assert unused == []


def test_no_imports_inside_functions():
    nested = {f"{name}:{node.lineno}" for name, tree in MODULES.items()
              for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert nested == set()


def test_only_geometry_chooses_between_packed_and_loop_passes():
    # the packed/loop cut-over is the kernel's decision alone
    users = [name for name, tree in MODULES.items()
             if _references(ast.walk(tree))["_PACKED_ROWS"]]
    assert users == ["geometry.py"]


def _defined_names(node) -> list[str]:
    """The names a module-level statement binds: a def, a class, or the
    plain names among an assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
               else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_private_module_level_name_is_referenced():
    everywhere = _references(n for tree in MODULES.values() for n in ast.walk(tree))
    dead = [f"{name}:{node.lineno} {defined}"
            for name, tree in MODULES.items() for node in tree.body
            for defined in _defined_names(node)
            if defined.startswith("_") and not defined.startswith("__")
            and everywhere[defined] == _references(ast.walk(node))[defined]]
    assert dead == []


# public names no src module, tool, benchmark or README mention reaches
TEST_ONLY = {
    "frames.frame_check": "the frame-function axioms checked on given observables; library API",
    "geometry.Halfspace.holds": "the Fraction oracle that tests compare Polytope.contains against",
    "io.samples_to_json": "the inverse of samples_from_json; the JSON round trip is tested",
    "lp.hull_vertices_lp": "the simplex oracle that hull_reduce is tested against",
    "lp.cone_rays_lp": "the simplex oracle that the cone generators are tested against",
    "observables.dichotomic_extremal_observables": "the two-outcome observables of E's "
                                                   "vertices; library API",
    "smooth.membership": "membership in a smooth family's state or effect body by name; "
                         "library API",
    "smooth.circle_point": "the rational circle point behind the disc rows; library API",
    "systems.Transform.inverted": "the inverse representation change; library API",
}


def _public_definitions() -> list[tuple[str, ast.AST]]:
    """(module.name or module.Class.method, node) of every public module-level
    function or class of ``src/gptgeom`` and every public method."""
    found = []
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found.append((f"{name[:-3]}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                found += [(f"{name[:-3]}.{node.name}.{m.name}", m) for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return found


def _outside_references() -> Counter:
    """Names read in ``tools/`` and the non-test ``perfbench/`` modules, with
    each part of their dotted-name strings (the tracing lists), and the
    names in README.md's code spans and calls."""
    refs = Counter()
    paths = [*sorted((ROOT / "tools").glob("*.py")),
             *(p for p in sorted((ROOT / "perfbench").glob("*.py"))
               if not p.name.startswith("test_"))]
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs.update(_references(ast.walk(tree)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    refs.update(parts)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for span in re.findall(r"`([^`\n]+)`", readme):
        refs.update(re.findall(r"[A-Za-z_]\w*", span))
    refs.update(re.findall(r"([A-Za-z_]\w*)\(", readme))
    return refs


def test_every_public_name_is_reached_outside_the_tests():
    src = _references(n for name, tree in MODULES.items() if name != "__init__.py"
                      for n in ast.walk(tree))
    outside = _outside_references()
    unreached = set()
    for qualified, node in _public_definitions():
        short = qualified.rsplit(".", 1)[-1]
        if src[short] == _references(ast.walk(node))[short] and not outside[short]:
            unreached.add(qualified)
    assert unreached - TEST_ONLY.keys() == set()
    assert TEST_ONLY.keys() - unreached == set()  # no stale allowlist entry
