"""Source-layout guards."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dirtytx"


def test_source_lines_fit_in_100_columns():
    long = [
        "%s:%d" % (path.name, number)
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert sorted(SRC.glob("*.py"))
    assert not long, "lines over 100 characters: %s" % ", ".join(long)


def test_package_exports_match_modules():
    # Each module's __all__ is the one list of its public names, and the
    # package republishes exactly their union.
    import dirtytx

    names = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("__init__", "cli", "version"):
            continue
        module = importlib.import_module("dirtytx." + path.stem)
        assert hasattr(module, "__all__"), "%s declares no __all__" % path.name
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, "%s lacks %s" % (path.name, ", ".join(missing))
        names += module.__all__
    expected = names + ["__version__"]
    assert len(set(expected)) == len(expected), "a public name is declared twice"
    assert sorted(dirtytx.__all__) == sorted(expected)
    assert all(hasattr(dirtytx, name) for name in dirtytx.__all__)


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_names_cross_modules():
    # Modules share code through public names.  The two exceptions: the
    # M-branch back-off reuses the candidate solver whose result types
    # differ from minmax_backoff's, and the NMSE polynomials keep their
    # unpacked two-branch fast path.
    allowed = {("mxm", "nmse._minmax"), ("nmse", "model._internal_powers")}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "dirtytx"):
                source = (node.module or "").removeprefix("dirtytx").lstrip(".")
                for alias in node.names:
                    if source:
                        if _private(alias.name):
                            found.add((path.stem, "%s.%s" % (source, alias.name)))
                    else:
                        modules[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and _private(node.attr)):
                found.add((path.stem, "%s.%s" % (modules[node.value.id], node.attr)))
    assert found - allowed == set(), "private names used across modules: %s" % sorted(
        "%s uses %s" % pair for pair in found - allowed)
