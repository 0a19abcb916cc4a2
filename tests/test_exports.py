"""The package's export lists name only what the package defines: every
``__all__`` entry resolves, each name ``spinwitness/__init__.py`` re-exports
is public in the module it comes from, every public callable has a caller in
the package or in the acceptance suite, some call there sets each defaulted
parameter of a public function, and package code uses every private
function, method and class."""
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import spinwitness

MODULES = sorted(m.name for m in pkgutil.iter_modules(spinwitness.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"spinwitness.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def reexports():
    tree = ast.parse(Path(spinwitness.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module_name, attr", reexports())
def test_package_reexports_resolve(module_name, attr):
    module = importlib.import_module(f"spinwitness.{module_name}")
    assert attr in module.__all__
    assert getattr(spinwitness, attr) is getattr(module, attr)


SRC = Path(spinwitness.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")

#: public callables with no caller in the package, each with its reason
UNCALLED_API: dict = {}


def referenced(tree, skip=None) -> set:
    """Every bare name and attribute name read in ``tree``, outside ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def uncalled_public_callables() -> list:
    """``module.name`` of each callable in a module's ``__all__`` that no
    other module of the package (``__init__.py`` aside), no code of its own
    module outside its definition and no acceptance test refers to."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")
             if path.stem != "__init__"}
    uses = {name: referenced(tree) for name, tree in trees.items()}
    acceptance = referenced(ast.parse(ACCEPTANCE.read_text()))
    orphans = []
    for name, tree in sorted(trees.items()):
        module = importlib.import_module(f"spinwitness.{name}")
        elsewhere = acceptance.union(*(u for other, u in uses.items() if other != name))
        for attr in getattr(module, "__all__", ()):
            if not callable(getattr(module, attr)) or attr in elsewhere:
                continue
            definition = next((node for node in tree.body
                               if getattr(node, "name", None) == attr), None)
            if attr not in referenced(tree, skip=definition):
                orphans.append(f"{name}.{attr}")
    return orphans


def test_every_public_callable_has_a_caller():
    assert uncalled_public_callables() == sorted(UNCALLED_API)


#: defaulted parameters of public functions that no call in the package or
#: the acceptance suite sets, each with the test that needs it
UNSET_OPTIONS = {
    "loophole.find_loophole_state.observables":
        "test_loophole.py::TestFindLoopholeState::test_unconstrained_matches_fixed_point_mle",
    "stats.witness_negative_probability.tau":
        "test_stats.py::TestWitnessNegativeProbability::test_symmetric_at_tau_zero",
    "tomography.mle_reconstruct.iterations":
        "test_tomography.py::TestMLE::test_likelihood_non_decreasing",
    "witnesses.optimal_fall_time.tau_max":
        "test_witnesses.py::TestOptimalFallTime::test_tiny_window_minimizer_at_edge",
}


def calls_by_name(trees) -> dict:
    """Per called name (``f(...)`` or ``x.f(...)``), each call's count of
    positional arguments and its keyword names; a call that unpacks ``*`` or
    ``**`` counts as setting every parameter (None)."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            unpacks = any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append(
                None if unpacks else (len(node.args), {k.arg for k in node.keywords}))
    return calls


def unset_options() -> list:
    """``module.function.parameter`` of each defaulted parameter of a
    function in a module's ``__all__`` that no call sets, by position, by
    keyword or through ``*``/``**``."""
    trees = [ast.parse(path.read_text()) for path in (*SRC.glob("*.py"), ACCEPTANCE)]
    calls = calls_by_name(trees)
    unset = []
    for name in MODULES:
        module = importlib.import_module(f"spinwitness.{name}")
        for attr in getattr(module, "__all__", ()):
            func = getattr(module, attr)
            if not inspect.isfunction(func):
                continue
            for i, param in enumerate(inspect.signature(func).parameters.values()):
                positional = param.kind is not param.KEYWORD_ONLY
                if param.default is param.empty or any(
                        call is None or (positional and i < call[0]) or param.name in call[1]
                        for call in calls.get(attr, ())):
                    continue
                unset.append(f"{name}.{attr}.{param.name}")
    return sorted(unset)


def test_every_option_is_set_by_a_caller():
    assert unset_options() == sorted(UNSET_OPTIONS)


def unused_private_definitions() -> list:
    """``module.name`` of each private function, method or class (a leading
    underscore, not a dunder) that no package code outside its own definition
    refers to; a reference from the tests does not count."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    unused = []
    for name, tree in sorted(trees.items()):
        elsewhere = set().union(*(referenced(t) for other, t in trees.items() if other != name))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.endswith("__") \
                    and node.name not in elsewhere | referenced(tree, skip=node):
                unused.append(f"{name}.{node.name}")
    return unused


def test_every_private_definition_is_used_by_the_package():
    assert unused_private_definitions() == []
