"""The package holds only what a ``qdf`` command runs.

Every name in the ``__all__`` of the pipeline modules must be reached from
``qdf.cli``: its module body and functions, then, transitively, every
top-level definition of ``src/qdf`` that a reached definition names (as a bare
name or as an attribute, matched by name alone).  A helper that only tests
call belongs in ``tests/``, as ``tests/conftest.py``'s formula helpers do.
"""

import ast
from pathlib import Path

import qdf
from qdf import costmodel, factorization, integrals, oracle, truncation, validate

PACKAGE = Path(qdf.__file__).parent
MODULES = [costmodel, oracle, factorization, truncation, integrals, validate]

#: Public names that no qdf command reaches, each with the reason it stays.
ALLOWED = {
    "factorization.load_cache": "reads a cache for perfbench/checks.py and perfbench/spans.py",
    "integrals.write_fcidump": "writes the FCIDUMP inputs of perfbench and "
                               "scripts/make_fixtures.py",
}


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _definitions() -> dict[tuple[str, str], ast.AST]:
    """(module, name) -> node of every top-level def, class and assignment."""
    found = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[(path.stem, node.name)] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        found[(path.stem, target.id)] = node
    return found


def reached_from_cli() -> set[tuple[str, str]]:
    definitions = _definitions()
    reached, frontier = set(), [ast.parse((PACKAGE / "cli.py").read_text())]
    while frontier:
        names = _names(frontier.pop())
        for key, node in definitions.items():
            if key[1] in names and key not in reached and key[0] != "__init__":
                reached.add(key)
                frontier.append(node)
    return {f"{module}.{name}" for module, name in reached}


def public_names() -> set[str]:
    return {f"{m.__name__.rpartition('.')[2]}.{name}" for m in MODULES for name in m.__all__}


def test_every_public_name_is_reached_from_the_cli():
    unreached = public_names() - reached_from_cli() - ALLOWED.keys()
    assert not unreached, f"public names only tests reach: {sorted(unreached)}"


def test_allow_list_names_only_unreached_public_names():
    assert ALLOWED.keys() <= public_names()
    assert not ALLOWED.keys() & reached_from_cli()
