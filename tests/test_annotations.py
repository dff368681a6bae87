"""Every annotation that the package writes resolves to a type."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import hincrec

MODULES = ["hincrec", *sorted(f"hincrec.{m.name}" for m in pkgutil.iter_modules(hincrec.__path__))]


def defined_in(module):
    """The functions and classes that `module` defines, and the classes'
    methods."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for attr in vars(obj).values():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                elif isinstance(attr, property):
                    attr = attr.fget
                if inspect.isfunction(attr):
                    yield attr


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    module = importlib.import_module(name)
    unresolved = []
    for obj in defined_in(module):
        try:
            typing.get_type_hints(obj)
        except NameError as err:
            unresolved.append(f"{obj.__qualname__}: {err}")
    assert not unresolved
