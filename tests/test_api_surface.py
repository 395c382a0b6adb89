"""The public API is what the commands, demos, bench and tools use, and the README names it."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import entropy_lab as el

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entropy_lab"
MODULES = ("decompositions", "documents", "dynamical", "entropy", "partitions", "systems")

# Public functions that had no caller outside the tests and were deleted.
REMOVED = (
    "relative_entropy",
    "diag_restrict",
    "pushforward",
    "as_density_matrix",
    "from_densities",
    "to_densities",
    "multi_marginal",
    "point_distribution",
    "simple_decomposition",
    "word_probability",
    "partition_to_document",
    "rho_mak",
    "theta_apply",
)

# Public names kept without a caller, each with its reason.
NO_CALLER = {
    "join": "the README states the cnt_search bound as hud_functional(mu, join(f, g))",
    "entropy_defect": "cnt_functional is defined as the marginals' information minus this",
}


def public_api() -> dict:
    """Every function and class in ``entropy_lab.__all__``."""
    objects = {name: getattr(el, name) for name in el.__all__}
    return {n: o for n, o in objects.items() if inspect.isfunction(o) or inspect.isclass(o)}


class References(ast.NodeVisitor):
    """Names a file uses as a Name, an Attribute or an import alias.

    A use inside the def or class of the same name does not count, and an
    attribute of a literal (``", ".join``) is a method of the literal.
    """

    def __init__(self):
        self.found = set()
        self.enclosing = []

    def _scope(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def _use(self, name):
        if name not in self.enclosing:
            self.found.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        if not isinstance(node.value, (ast.Constant, ast.JoinedStr)):
            self._use(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._use(node.name.rsplit(".", 1)[-1])


def caller_references() -> set:
    """Names used by the package modules (not its re-exports), demos, bench and tools."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for directory in ("demos", "bench", "tools"):
        files += sorted((ROOT / directory).rglob("*.py"))
    visitor = References()
    for path in files:
        visitor.visit(ast.parse(path.read_text(), str(path)))
    return visitor.found


def library_map() -> str:
    text = (ROOT / "README.md").read_text()
    return text.split("## Library map", 1)[1].split("\n## ", 1)[0]


def test_every_public_function_and_class_has_a_caller():
    found = caller_references()
    unused = sorted(set(public_api()) - found - set(NO_CALLER))
    assert unused == []
    assert sorted(set(NO_CALLER) & found) == [], "a name in NO_CALLER has a caller now"


def test_removed_names_are_gone():
    modules = [el] + [importlib.import_module(f"entropy_lab.{m}") for m in MODULES]
    for module in modules:
        assert [n for n in REMOVED if hasattr(module, n)] == [], module.__name__
        assert [n for n in REMOVED if n in getattr(module, "__all__", ())] == []


def test_readme_library_map_names_the_public_api():
    section = library_map()
    named = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    api = {n for n, o in public_api().items() if o.__module__ != "entropy_lab._errors"}
    assert sorted(api - named) == []


def test_readme_names_no_removed_function():
    text = (ROOT / "README.md").read_text()
    assert [n for n in REMOVED if re.search(rf"\b{n}\b", text)] == []
