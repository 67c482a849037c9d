"""Source hygiene of ``src/gptgeom``, read with ``ast``: no unused imports,
no import inside a function body, and no private module-level name (a
function, class or assigned value) that nothing references, so deletions
leave no dead helpers behind."""
import ast
from collections import Counter
from pathlib import Path

import gptgeom

SRC = Path(gptgeom.__file__).parent
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
