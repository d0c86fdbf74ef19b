"""Module boundaries: no heckelab module imports another's private names,
the rational-function type stays in two modules, only ClosedPoint tests
a polynomial for irreducibility, the value types check their entries
without converting them, every module is in README's module map, and
every exported name exists."""

import ast
import importlib
import re
import tokenize
from pathlib import Path

import heckelab

PACKAGE = Path(heckelab.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def private_imports(path):
    """(line, module, name) for each `_name` imported from a heckelab module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("heckelab"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                out.append((node.lineno, node.module or ".", name))
    return out


def test_no_module_imports_private_names_of_another():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    offenders = {
        path.name: found for path in sources if (found := private_imports(path))
    }
    assert offenders == {}


def test_scan_flags_private_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .bundles import BundleType, _hidden\n"
        "from heckelab.oracle import _other\n"
        "from . import __version__\n"
        "from os import _exit\n"
        "def f():\n"
        "    from .fpoly import _inner\n"
    )
    assert [name for _, _, name in private_imports(sample)] == ["_hidden", "_other", "_inner"]


def names_qrat(path):
    """True when the module's code names QRat or a RAT_ constant."""
    with path.open("rb") as source:
        tokens = tokenize.tokenize(source.readline)
        names = {tok.string for tok in tokens if tok.type == tokenize.NAME}
    return "QRat" in names or any(name.startswith("RAT_") for name in names)


def test_only_qcalc_and_bundles_name_qrat():
    # QRat only carries bundles.q_factor; Hall coefficients stay in Z[q]
    users = {path.stem for path in PACKAGE.glob("*.py") if names_qrat(path)}
    assert users == {"qcalc", "bundles"}


def calls_is_irreducible(path):
    """True when the module calls is_irreducible, as a name or an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "is_irreducible":
                return True
    return False


def test_scan_flags_irreducibility_calls(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from . import fpoly\nok = fpoly.is_irreducible((1, 1), 2)\n")
    assert calls_is_irreducible(sample)
    sample.write_text("from .fpoly import is_irreducible as test\nok = is_irreducible\n")
    assert not calls_is_irreducible(sample)


def test_only_closed_point_tests_irreducibility():
    # a point's (q, d, poly) is validated once, by ClosedPoint
    users = {path.stem for path in PACKAGE.glob("*.py") if calls_is_irreducible(path)}
    assert users == {"bundles", "fpoly"}


def class_node(module, name):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name)


def calls_int(node):
    return any(
        isinstance(n, ast.Call) and getattr(n.func, "id", None) == "int" for n in ast.walk(node)
    )


def test_value_types_check_entries_without_converting_them():
    for module, name in (("qcalc", "QPoly"), ("bundles", "BundleType"), ("deltas", "DeltaVec")):
        cls = class_node(module, name)
        init = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
        assert not calls_int(init), name
    assert calls_int(ast.parse("x = int('1')"))


def test_qpoly_has_one_construction_path():
    # every QPoly goes through __init__: no __new__ bypass, no classmethod
    assert "__new__" not in (PACKAGE / "qcalc.py").read_text()
    cls = class_node("qcalc", "QPoly")
    decorators = {
        getattr(d, "id", None) for n in ast.walk(cls) for d in getattr(n, "decorator_list", [])
    }
    assert decorators == {"staticmethod", "property"}


def test_every_module_is_in_the_readme_module_map():
    text = README.read_text()
    table = text[text.index("## Module map") :]
    mapped = set(re.findall(r"^\| `heckelab\.(\w+)`", table, flags=re.MULTILINE))
    assert len(MODULES) > 5
    assert mapped == set(MODULES)


def test_every_name_in_all_exists():
    for name in MODULES:
        module = importlib.import_module(f"heckelab.{name}")
        exported = getattr(module, "__all__", [])
        assert len(exported) == len(set(exported)), name
        assert [n for n in exported if not hasattr(module, n)] == [], name
