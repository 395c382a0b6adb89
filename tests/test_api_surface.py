"""The public API is what the commands, demos, bench and tools use, and the README names it."""

import ast
import dataclasses
import enum
import importlib
import inspect
import re
from pathlib import Path

import entropy_lab as el

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entropy_lab"
MODULES = ("decompositions", "documents", "dynamical", "entropy", "partitions", "systems")

# Public functions, classes and members that had no caller outside the tests,
# or restated another object's numbers, and were deleted.  A member is named
# ``Class.member``.
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
    "RateEstimate",
    "rate_estimate",
    "word_code",
    "RefinedPartition.scheme",
    "RefinedPartition.element",
    "Decomposition.n_components",
    "Decomposition.mixture",
    "SupResult.partition",
    "SupResult.estimate",
    "mutual_information",
    "cnt_onetime",
    "extremal_decompositions",
)

# Public names kept without a caller, each with its reason.
NO_CALLER = {
    "entropy_defect": "cnt_functional is defined as the marginals' information minus this",
}


def public_api() -> dict:
    """Every function and class in ``entropy_lab.__all__``."""
    objects = {name: getattr(el, name) for name in el.__all__}
    return {n: o for n, o in objects.items() if inspect.isfunction(o) or inspect.isclass(o)}


def public_members() -> set:
    """``Class.member`` for every public method and property of a public class.

    Exceptions, enum members and dataclass fields are not members here.
    """
    members = set()
    for name, cls in public_api().items():
        if not inspect.isclass(cls) or issubclass(cls, (BaseException, enum.Enum)):
            continue
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else ()
        for member, value in vars(cls).items():
            if member.startswith("_") or member in fields:
                continue
            wrapped = isinstance(value, (property, classmethod, staticmethod))
            if inspect.isfunction(value) or wrapped:
                members.add(f"{name}.{member}")
    return members


class References(ast.NodeVisitor):
    """Names a file uses as a Name, an Attribute or an import alias.

    A use inside the def or class of the same name does not count, and an
    attribute of a literal (``", ".join``) is a method of the literal.
    ``attributes`` maps each attribute name read to the sets of classes
    whose bodies enclosed a read of it; a read outside every class adds the
    empty set.
    """

    def __init__(self):
        self.found = set()
        self.enclosing = []
        self.classes = []
        self.attributes = {}

    def _scope(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _scope

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self._scope(node)
        self.classes.pop()

    def _use(self, name):
        if name not in self.enclosing:
            self.found.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        if not isinstance(node.value, (ast.Constant, ast.JoinedStr)):
            self._use(node.attr)
            self.attributes.setdefault(node.attr, set()).add(frozenset(self.classes))
        self.generic_visit(node)

    def read_outside(self, cls: str, attr: str) -> bool:
        """Whether ``attr`` is read somewhere outside the body of class ``cls``."""
        return any(cls not in classes for classes in self.attributes.get(attr, ()))

    def visit_alias(self, node):
        self._use(node.name.rsplit(".", 1)[-1])


def caller_references() -> References:
    """Uses in the package modules (not its re-exports), demos, bench and tools."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for directory in ("demos", "bench", "tools"):
        files += sorted((ROOT / directory).rglob("*.py"))
    visitor = References()
    for path in files:
        visitor.visit(ast.parse(path.read_text(), str(path)))
    return visitor


def library_map() -> str:
    text = (ROOT / "README.md").read_text()
    return text.split("## Library map", 1)[1].split("\n## ", 1)[0]


def test_every_public_function_and_class_has_a_caller():
    found = caller_references().found
    unused = sorted(set(public_api()) - found - set(NO_CALLER))
    assert unused == []
    assert sorted(set(NO_CALLER) & found) == [], "a name in NO_CALLER has a caller now"


def test_every_public_member_is_read_outside_its_class():
    references = caller_references()
    unread = [m for m in sorted(public_members()) if not references.read_outside(*m.split("."))]
    assert unread == []


def test_removed_names_are_gone():
    modules = [el] + [importlib.import_module(f"entropy_lab.{m}") for m in MODULES]
    names = [n for n in REMOVED if "." not in n]
    for module in modules:
        assert [n for n in names if hasattr(module, n)] == [], module.__name__
        assert [n for n in names if n in getattr(module, "__all__", ())] == []
    for member in (n for n in REMOVED if "." in n):
        cls, attr = member.split(".")
        fields = {f.name for f in dataclasses.fields(getattr(el, cls))}
        assert not hasattr(getattr(el, cls), attr) and attr not in fields, member


def test_readme_library_map_names_the_public_api():
    section = library_map()
    named = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    api = {n for n, o in public_api().items() if o.__module__ != "entropy_lab._errors"}
    assert sorted(api - named) == []


def test_readme_names_no_removed_function():
    text = (ROOT / "README.md").read_text()
    names = [n for n in REMOVED if "." not in n]
    assert [n for n in names if re.search(rf"\b{n}\b", text)] == []
    members = [n.split(".")[1] for n in REMOVED if "." in n]
    assert [m for m in members if re.search(rf"\.{m}\b|`{m}`", text)] == []
