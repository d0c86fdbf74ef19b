"""Module boundaries: no heckelab module imports another's private names,
the oracle imports neither the Hall engine nor the forms layer,
the rational-function type stays in two modules, only ClosedPoint tests
a polynomial for irreducibility, only fpoly converts between ints and
bytes, translates bytes or builds arrays, no module relies on an assert
statement, the value types check their entries without converting them,
every lru_cache decorates a module-level function and none is a public
name, every module is in README's module map, every exported name exists,
and the exported names that only tests call are a fixed list.  Also checks
the rule by which tests/code_lines.py counts code lines."""

import ast
import importlib
import importlib.util
import re
import tokenize
from pathlib import Path

import heckelab
from heckelab import forms

PACKAGE = Path(heckelab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
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


def calls_of(path, names):
    """(line, name) for each call in the module of one of names, called as a
    name or an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                out.append((node.lineno, name))
    return sorted(out)


def test_scan_flags_irreducibility_calls(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from . import fpoly\nok = fpoly.is_irreducible((1, 1), 2)\n")
    assert calls_of(sample, {"is_irreducible"}) == [(2, "is_irreducible")]
    sample.write_text("from .fpoly import is_irreducible as test\nok = is_irreducible\n")
    assert calls_of(sample, {"is_irreducible"}) == []


def test_only_closed_point_tests_irreducibility():
    # a point's (q, d, poly) is validated once, by ClosedPoint
    users = {path.stem for path in PACKAGE.glob("*.py") if calls_of(path, {"is_irreducible"})}
    assert users == {"bundles", "fpoly"}


#: the conversions of the byte form of F_p[t] and of the Kronecker-packed
#: ints of fpoly.mat_mul, which stay inside fpoly
BYTE_FORM_CALLS = {"array", "from_bytes", "to_bytes", "translate"}


def test_scan_flags_byte_form_calls(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "v = int.from_bytes(b'ab', 'little')\n"
        "to_bytes = v.to_bytes\n"
        "w = to_bytes(2, 'little').translate(bytes(range(256)))\n"
        "text = 'translate'\n"
        "table = str.maketrans('a', 'b')\n"
        "def f(x):\n"
        "    return x.translate(table)\n"
        "slots = array('B', b'ab')\n"
    )
    assert calls_of(sample, BYTE_FORM_CALLS) == [
        (1, "from_bytes"),
        (3, "to_bytes"),
        (3, "translate"),
        (7, "translate"),
        (8, "array"),
    ]


def test_only_fpoly_handles_the_byte_form():
    # F_p[t]'s byte form and the ints it packs into stay behind one module
    users = {path.stem for path in PACKAGE.glob("*.py") if calls_of(path, BYTE_FORM_CALLS)}
    assert users == {"fpoly"}


def assert_lines(path):
    """The line of each assert statement in the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_scan_flags_assert_statements(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def f(x):\n"
        "    assert x > 0\n"
        "    msg = 'assert x'\n"
        "    return x  # assert x\n"
        "class K:\n"
        "    def g(self):\n"
        "        assert self, 'empty'\n"
    )
    assert assert_lines(sample) == [2, 7]


def test_no_module_relies_on_assert():
    # python -O strips asserts, so a check that must hold raises instead
    offenders = {
        path.name: found for path in PACKAGE.glob("*.py") if (found := assert_lines(path))
    }
    assert offenders == {}


def heckelab_imports(path):
    """The heckelab modules a module imports, relatively or by full name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("heckelab"):
                    continue
                module = module.removeprefix("heckelab").lstrip(".")
            if module:
                out.add(module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("heckelab.")
            )
    return out


def test_scan_finds_heckelab_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os\n"
        "import heckelab.hall\n"
        "from . import fpoly, qcalc\n"
        "from .bundles import BundleType\n"
        "from heckelab.forms import eigenform_solve\n"
        "def f():\n"
        "    from .hecke import neighbors\n"
    )
    assert heckelab_imports(sample) == {"hall", "fpoly", "qcalc", "bundles", "forms", "hecke"}


def test_oracle_imports_neither_hall_nor_forms():
    # the oracle is the ground truth the Hall engine and the eigen layer
    # are checked against, so it computes nothing through them
    assert heckelab_imports(PACKAGE / "oracle.py") & {"hall", "hecke", "forms"} == set()


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


def test_qrat_has_no_arithmetic():
    # Q(E) is applied by exact division by its denominator, so the Hall
    # engine cannot grow rational arithmetic again
    cls = class_node("qcalc", "QRat")
    names = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    names |= {
        target.id
        for node in cls.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert names == {"__slots__", "__init__", "__setattr__", "pretty", "__repr__"}


CACHE_DECORATORS = {"lru_cache", "cache"}


def misplaced_caches(path):
    """(line, name) for each use of functools' lru_cache or cache other than
    as the decorator of a module-level function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    local = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in CACHE_DECORATORS
    }
    allowed = {
        id(sub)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for dec in node.decorator_list
        for sub in ast.walk(dec)
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in local:
            used = node.id
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in CACHE_DECORATORS
            and getattr(node.value, "id", None) == "functools"
        ):
            used = node.attr
        else:
            continue
        if id(node) not in allowed:
            out.append((node.lineno, used))
    return out


def test_scan_flags_caches_below_module_level(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import functools\n"
        "from functools import lru_cache, cache as memo\n"
        "@lru_cache(maxsize=8)\n"
        "def top(x):\n"
        "    return x\n"
        "@functools.cache\n"
        "def other(x):\n"
        "    return x\n"
        "class K:\n"
        "    @memo\n"
        "    def method(self):\n"
        "        return 1\n"
        "def outer():\n"
        "    @lru_cache\n"
        "    def inner(x):\n"
        "        return x\n"
        "    return functools.lru_cache()(inner)\n"
    )
    assert misplaced_caches(sample) == [(10, "memo"), (14, "lru_cache"), (17, "lru_cache")]


def test_every_cache_is_a_module_level_function():
    # perfbench's reset_caches finds caches as module attributes; one on a
    # method or a nested function would stay warm across its cold runs
    offenders = {
        path.name: found for path in PACKAGE.glob("*.py") if (found := misplaced_caches(path))
    }
    assert offenders == {}
    assert hasattr(forms._hecke_operators, "cache_clear")
    assert hasattr(forms._cusp_middles, "cache_clear")


def test_no_public_name_is_a_cache():
    # a cache in front of its own checks keys 2.0 and True like 2 and 1, so
    # each public function checks its arguments, then calls a private cache
    cached = {
        f"{name}.{attr}"
        for name in MODULES
        for attr, obj in vars(importlib.import_module(f"heckelab.{name}")).items()
        if not attr.startswith("_") and hasattr(obj, "cache_info")
    }
    assert cached == set()
    assert hasattr(importlib.import_module("heckelab.qcalc")._gaussian_binomial, "cache_info")


def eigen_working_set():
    """The (n, D, q0) systems and (n1, n2, D, q0) cusp keys of the eigen
    benchmark's first thousand ops."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = workloads.first_ops(workloads.WORKLOADS["eigen"], 0, 1000)
    systems = {(n, D, q0) for n, D, q0, _, _ in ops}
    cusps = {(n1, n - n1, D, q0) for n, D, q0, _, n1 in ops}
    return systems, cusps


def test_forms_caches_are_bounded_and_hold_the_eigen_working_set():
    systems, cusps = eigen_working_set()
    assert len(systems) == 75 and 100 <= len(cusps) <= 120
    for cache, keys in ((forms._hecke_operators, systems), (forms._cusp_middles, cusps)):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and len(keys) <= maxsize


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


def referenced_names(path):
    """The names a module's code reads: loaded names, attributes and the
    names it imports.  Definitions and the strings of __all__ are not reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_scan_finds_referenced_names(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .qcalc import q_int\n"
        "__all__ = ['unused', 'used']\n"
        "def unused():\n"
        "    return fpoly.rank(used(), 2)\n"
        "def used():\n"
        "    stored = 1\n"
    )
    assert referenced_names(sample) == {"q_int", "fpoly", "rank", "used"}


#: exported names that no code outside the tests reads; ROADMAP item 8
#: promotes each into verify or deletes it, and no new one may join them
TEST_ONLY_SURFACE = {
    "hecke.multiplicity",
    "oracle.brute_aut_order",
    "oracle.count_monomorphisms",
}


def test_the_public_names_only_tests_call_are_a_fixed_list():
    callers = [
        *PACKAGE.glob("*.py"),
        *(ROOT / "demos").rglob("*.py"),
        *(ROOT / "perfbench").rglob("*.py"),
    ]
    read = set().union(*map(referenced_names, callers))
    test_only = {
        f"{name}.{attr}"
        for name in MODULES
        for attr in getattr(importlib.import_module(f"heckelab.{name}"), "__all__", [])
        if attr not in read
    }
    assert test_only == TEST_ONLY_SURFACE


def test_code_lines_skips_blank_comment_and_docstring_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tests" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    sample = (
        '"""A module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # code with a comment\n"
        "\n"
        "\n"
        "class C:\n"
        '    """A class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """A function\n        docstring."""\n'
        '        return """a string\n        of two lines"""\n'
    )
    # x = 1, class C, def f and both lines of the returned string
    assert code_lines.code_lines(sample) == 5
