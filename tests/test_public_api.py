"""The package namespace is the union of its modules' ``__all__`` lists."""

from __future__ import annotations

import itertools

import pytest

import bosecycles
from bosecycles import coupling, cycle_engine, potentials, special_fn, thermo, wavefunctions

MODULES = [coupling, cycle_engine, potentials, special_fn, thermo, wavefunctions]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.rpartition(".")[2])
def test_module_names_are_package_names(module):
    for name in module.__all__:
        assert name in bosecycles.__all__
        assert getattr(bosecycles, name) is getattr(module, name)


def test_no_name_is_exported_twice():
    for a, b in itertools.combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)
    assert len(bosecycles.__all__) == len(set(bosecycles.__all__))


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from bosecycles import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(bosecycles.__all__)


def test_raised_and_returned_types_are_exported():
    # DcpModel.from_weights raises TruncationError; DcpModel.ideal and
    # free_energy_bounds raise UnsupportedDimensionError for d < 3
    assert bosecycles.TruncationError is thermo.TruncationError
    assert bosecycles.UnsupportedDimensionError is thermo.UnsupportedDimensionError
    # the return type of free_energy_bounds
    assert "FreeEnergyBounds" in potentials.__all__
