"""Every public name in `src/sievelab` is used by the program or a check.

A public top-level function or class, or a public method of such a class,
must be referenced by name (a bare name, an attribute or an imported name)
in the package's code, in a `sievebench/*.py` file other than its tests, or
in `tests/test_acceptance.py`.  A re-export in `__init__.py` is not a use,
and unit tests alone do not keep a name alive: API that no command and no
check uses is deleted.  The exceptions are listed in `ALLOWED`, each with
a comment giving its reason.  Matching is by name, so a dead name spelled
like a live one (a method and a local variable, say) still passes.  Stdlib
`ast` only; the whole check parses about twenty files.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sievelab"

ALLOWED = {
    "cli.cmd_constants",   # `cli.main` calls cmd_<subcommand> by name
    "cli.cmd_local",       # likewise
    "cli.cmd_equidist",    # likewise
    "cli.cmd_census",      # likewise
    "cli.cmd_enumerate",   # likewise
    "cli.cmd_automorphs",  # likewise
    "quadforms.signature",       # for the hypothesis certificate, ROADMAP item 1
    "quadforms.is_isotropic_Q",  # likewise
    "quadforms.IsotropyCertificate.is_anisotropic",  # likewise
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def public_names(tree: ast.Module) -> list[str]:
    """Public top-level functions and classes, and `Class.method` for the
    public methods of those classes."""
    names = []
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names.extend(f"{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_"))
    return names


def referenced(tree: ast.Module) -> set[str]:
    """Names a module uses: bare names, attribute names and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unreferenced() -> list[str]:
    """`module.name` for each public name that nothing outside the tests uses."""
    modules = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    callers = [path for path in sorted((ROOT / "sievebench").glob("*.py"))
               if not path.name.startswith("test_")]
    callers.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*map(referenced, modules.values()),
                       *(referenced(_parse(path)) for path in callers))
    return [f"{stem}.{name}" for stem, tree in modules.items()
            for name in public_names(tree)
            if f"{stem}.{name}" not in ALLOWED and name.rsplit(".", 1)[-1] not in used]


def test_every_public_name_has_a_caller():
    assert unreferenced() == []


def test_allowlist_names_exist():
    defined = {f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
               for name in public_names(_parse(path))}
    assert set(ALLOWED) <= defined
