"""Every public function, class, method, property and keyword option of gmpkit has a user.

The guard reads the source with ``ast``. It covers each public module-level
function and class in ``src/gmpkit``, each public method and property of
those classes, and each of their parameters that has a default. A user is:

* code in ``src/gmpkit`` outside the name's own definition,
* code in ``perfbench/``, where the ``(module, function, counter)``
  strings of ``tracing.py``'s ``TRACED`` count as reads of the functions
  the traced run rebinds,
* the README's library example, which ``tests/test_readme.py`` runs. A
  mention anywhere else in the README is not a use.

A function or class is used when a user reads its name, bare or as an
attribute (``signals.rms``). A method or property is used only through an
attribute read (``x.cell``): a local variable of the same name is not a
use. A parameter with a default is used only when a user's call passes it,
by keyword or by position. Dataclass fields are out of scope.

A name that only tests read or set is dead code: delete it, or give it a
user first. ``ALLOWED`` lists the exceptions, each with the ROADMAP item
that gives it a user.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from test_readme import library_example

ROOT = Path(__file__).resolve().parents[1]

# name as ``unused`` reports it -> the ROADMAP item that gives it a user
ALLOWED: dict[str, str] = {}


@dataclass(frozen=True)
class Definition:
    """A public function, class, method or property, with its defaulted parameters."""

    name: str            # as reported: "module.func", "module.Class.method"
    short: str           # the name a user reads
    node: ast.AST
    method: bool         # reached only through an attribute read
    defaults: dict[str, int | None]  # defaulted parameter -> its position, None if keyword-only


def definitions(module: str, tree: ast.Module) -> list[Definition]:
    """The public module-level functions and classes of ``tree`` and their public methods."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found.append(Definition(f"{module}.{node.name}", node.name, node, False,
                                    _defaults(node, 0)))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found.append(Definition(f"{module}.{node.name}", node.name, node, False, {}))
            found.extend(
                Definition(f"{module}.{node.name}.{item.name}", item.name, item, True,
                           _defaults(item, 1))  # a call does not pass ``self``
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return found


def _defaults(node: ast.FunctionDef, skip: int) -> dict[str, int | None]:
    """Each parameter with a default, by the position a call passes it at (``skip`` not passed)."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    found: dict[str, int | None] = {a.arg: i - skip for i, a in enumerate(positional) if i >= first}
    found.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return found


@dataclass
class Uses:
    """What user code reads and passes, each read with the definitions it sits inside."""

    names: list[tuple[str, frozenset[int]]] = field(default_factory=list)
    attributes: list[tuple[str, frozenset[int]]] = field(default_factory=list)
    # callee, read as an attribute, positions passed and keywords passed (None: any, for a
    # call with *args or **kwargs), and the definitions the call sits inside
    calls: list[tuple[str, bool, int | None, set[str] | None, frozenset[int]]] = field(
        default_factory=list)

    def scan(self, tree: ast.AST, inside: frozenset[int] = frozenset()) -> None:
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self.names.append((node.id, inside))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                self.attributes.append((node.attr, inside))
            elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                attribute = isinstance(node.func, ast.Attribute)
                callee = node.func.attr if attribute else node.func.id
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}  # None stands for a **kwargs
                self.calls.append((callee, attribute, None if starred else len(node.args),
                                   None if None in keywords else keywords, inside))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.scan(node, inside | {id(node)})
            else:
                self.scan(node, inside)

    def add_traced(self, tree: ast.Module) -> None:
        """Read the function names of a ``TRACED = ((module, function, counter), ...)``."""
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
                self.names.extend((func, frozenset()) for _, func, _ in ast.literal_eval(node.value))


def unused(package: dict[str, str], users: list[str]) -> list[str]:
    """The definitions of ``package`` (module name -> source) that nothing uses.

    ``users`` are the sources of code outside the package that counts as a
    user. Unused defaulted parameters are reported as ``name(param=)``.
    """
    modules = {module: ast.parse(source) for module, source in package.items()}
    user_trees = [ast.parse(source) for source in users]
    uses = Uses()
    for tree in [*modules.values(), *user_trees]:
        uses.scan(tree)
    for tree in user_trees:
        uses.add_traced(tree)
    found = []
    for d in (d for module, tree in modules.items() for d in definitions(module, tree)):
        reads = uses.attributes if d.method else [*uses.names, *uses.attributes]
        if not any(name == d.short and id(d.node) not in inside for name, inside in reads):
            found.append(d.name)
        calls = [(position, keywords) for callee, attribute, position, keywords, inside in uses.calls
                 if callee == d.short and (attribute or not d.method) and id(d.node) not in inside]
        found.extend(
            f"{d.name}({param}=)" for param, index in d.defaults.items()
            if not any(keywords is None or param in keywords
                       or (index is not None and (position is None or index < position))
                       for position, keywords in calls))
    return found


def project_sources() -> tuple[dict[str, str], list[str]]:
    package = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "gmpkit").glob("*.py"))}
    users = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    return package, [*users, library_example()]


def test_every_export_has_a_user():
    # an allowance that is no longer needed fails too
    assert sorted(unused(*project_sources())) == sorted(ALLOWED)


def test_guard_sees_reads_and_skips_definitions():
    package = {
        "a": (
            "def kept(): ...\n"
            "def dead(): ...\n"
            "def documented(): ...\n"
            "def recursive(): return recursive()\n"
            "def traced(): ...\n"
            "def options(x, by_position=1, by_keyword=2, never=3): ...\n"
            "class unused: ...\n"
            "class Map:\n"
            "    def read(self): ...\n"
            "    def cell(self): ...\n"
            "    def tested(self): ...\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import dead\n"
            "x = a.kept()\n"
            "m = a.Map()\n"
            "a.options(1, 2, by_keyword=3)\n"
            "def _use(m):\n"
            "    cell = m.read()\n"
            "    return cell.xi\n"
        ),
    }
    example = "documented()\n"
    tracer = "TRACED = (('a', 'traced', None),)\n"
    assert unused(package, [example, tracer]) == [
        "a.dead", "a.recursive", "a.options(never=)", "a.unused",
        "a.Map.cell", "a.Map.tested",
    ]
