"""Layout rules of the package, read from its sources with ast.

- galois imports no module of the package but errors.
- No module reads another module's private names (a leading underscore,
  dunders aside), by `from .m import _x` or as `m._x`.
- operator.index appears only in errors.py: errors.index and
  errors.integer are the one rule that reads an integer handed in from
  outside.
- ErasureChain is constructed only in gmd.py: gmd.keyed_chain builds
  every chain the package decodes along.
"""

import ast
from pathlib import Path

import gccodec as g

PACKAGE = Path(g.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def relative_imports(tree) -> list:
    """(module, name) of every name a relative import binds: `from .m
    import a` gives ("m", "a"), `from . import m` gives ("m", None)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                out.append((node.module, alias.name) if node.module else (alias.name, None))
    return out


def private_reads(tree) -> list:
    """`m._x` and `from .m import _x` in tree, m a module of the package."""
    imports = relative_imports(tree)
    modules = {module for module, name in imports if name is None}
    reads = [f"{module}.{name}" for module, name in imports if name and private(name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and private(node.attr):
                reads.append(f"{node.value.id}.{node.attr}")
    return reads


def operator_index_lines(tree) -> list:
    """Lines of tree that read operator.index or import it by name."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "index":
            if isinstance(node.value, ast.Name) and node.value.id == "operator":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "operator":
            lines += [node.lineno for alias in node.names if alias.name == "index"]
    return lines


def constructions(tree, name: str) -> list:
    """Lines of tree that call name, bare or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)
    ]


def test_the_package_is_read():
    assert {"errors", "galois", "block_codes", "specio", "channel", "experiment"} <= set(MODULES)


def test_galois_imports_only_errors():
    assert {module for module, _ in relative_imports(MODULES["galois"])} == {"errors"}


def test_no_module_reads_another_modules_private_names():
    reads = {name: private_reads(tree) for name, tree in MODULES.items()}
    assert {name: r for name, r in reads.items() if r} == {}


def test_operator_index_is_read_only_in_errors():
    lines = {name: operator_index_lines(tree) for name, tree in MODULES.items()}
    assert {name: found for name, found in lines.items() if found} == {"errors": lines["errors"]}
    assert lines["errors"]


def test_only_gmd_builds_erasure_chains():
    lines = {name: constructions(tree, "ErasureChain") for name, tree in MODULES.items()}
    assert {name: found for name, found in lines.items() if found} == {"gmd": lines["gmd"]}
    assert lines["gmd"]
