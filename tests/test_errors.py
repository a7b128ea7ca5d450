"""The package raises one typed error hierarchy, each class with its exit code."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hklat
from hklat import errors

SRC = Path(hklat.__file__).parent
BUILTIN_RAISES = {"ValueError", "KeyError", "ArithmeticError", "NotImplementedError"}

EXIT_CODES = {
    errors.InvalidParameter: (1, ValueError),
    errors.UnsupportedPrime: (1, ValueError),
    errors.NotEvenLattice: (2, ValueError),
    errors.NotPElementary: (2, ValueError),
    errors.DegenerateForm: (2, ValueError),
    errors.PrimalityUnproved: (2, ArithmeticError),
}


def _package_modules():
    return [importlib.import_module(f"hklat.{m.name}") for m in pkgutil.iter_modules([str(SRC)])]


def test_every_exception_class_is_an_hklat_error():
    found = {
        obj
        for module in _package_modules()
        for _, obj in inspect.getmembers(module, inspect.isclass)
        if issubclass(obj, BaseException) and obj.__module__.startswith("hklat")
    }
    assert found == set(EXIT_CODES) | {errors.HklatError}
    for cls in found:
        assert issubclass(cls, errors.HklatError), cls
        assert cls.exit_code in (1, 2), cls


@pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda cls: cls.__name__)
def test_exit_code_and_builtin_base(cls):
    code, base = EXIT_CODES[cls]
    assert cls.exit_code == code
    assert issubclass(cls, base)


def test_classes_stay_importable_where_they_are_raised():
    from hklat import classify, exact, lattices, tables

    for module, names in (
        (exact, ("PrimalityUnproved",)),
        (lattices, ("DegenerateForm", "InvalidParameter", "NotEvenLattice")),
        (classify, ("NotPElementary",)),
        (tables, ("UnsupportedPrime",)),
    ):
        for name in names:
            assert getattr(module, name) is getattr(errors, name), (module, name)


def test_no_raise_of_a_bare_builtin_error():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_RAISES:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
