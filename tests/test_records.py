"""Equality and hashing of every dataclass the package defines.

A record that holds arrays or sparse matrices compares and hashes by
identity (eq=False): the generated field-wise __eq__ raised numpy's
bare ValueError for two records with distinct multi-element arrays,
and its __hash__ = None made hash() raise TypeError. Records of scalars
and tuples keep value equality. Every dataclass needs an entry in
FACTORIES, so one added later must choose its rule here.
"""

import copy
import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import paroeig
from helpers import pencil
from paroeig import mesh as pm
from paroeig.adapt import AdaptConfig, Level, RunRecord
from paroeig.assembly import Coefficients
from paroeig.cli import RunConfig
from paroeig.estimator import Indicators
from paroeig.linalg import minres_solve
from paroeig.multilevel import _level
from paroeig.paro import ClusterLayout, OrbitalBlock
from paroeig.verify import ClusterReport, ReferencePairs, _factor_k

SYSTEM = pencil(np.diag([1.0, 2.0, 3.0]), np.eye(3))
SQUARE = pm.build_initial_mesh("unit_square")

# records compared by identity: each call builds one with its own arrays
IDENTITY = {
    "adapt.RunRecord": lambda: RunRecord(0, 3, np.array([1.0, 2.0]), 1.0,
                                         1, np.inf, 0.0),
    "adapt.Level": lambda: Level.first(pm.uniform_refine(SQUARE, 2)[0],
                                       Coefficients.identity()),
    "assembly.Coefficients": lambda: Coefficients(np.eye(2), 1.0),
    "assembly.FemSystem": lambda: pencil(np.diag([1.0, 2.0, 3.0]),
                                         np.eye(3)),
    "estimator.Indicators": lambda: Indicators(np.array([1.0, 2.0])),
    "linalg.MinresResult": lambda: minres_solve([SYSTEM.K] * 2,
                                                np.ones((2, 3))),
    "mesh.RefineMap": lambda: pm.refine(SQUARE, [0])[1],
    "multilevel._Level": lambda: _level(3, SYSTEM.M, SYSTEM.K,
                                        np.arange(3)),
    "paro.OrbitalBlock": lambda: OrbitalBlock(np.eye(3),
                                              np.array([1.0, 2.0, 5.0])),
    "verify.ReferencePairs": lambda: ReferencePairs(np.array([1.0, 2.0]),
                                                    np.eye(2, 3)),
    "verify._PermutedLU": lambda: _factor_k(SYSTEM),
    "verify.ClusterReport": lambda: ClusterReport(0, 0.1, 0.0,
                                                  np.array([0.05, 0.02])),
}
# records of scalars and tuples, compared by value: a factory and a
# field change that makes a record unequal
VALUE = {
    "adapt.AdaptConfig": (AdaptConfig, {"theta": 0.3}),
    "cli.RunConfig": (RunConfig, {"n_orbitals": 2}),
    "paro.ClusterLayout": (lambda: ClusterLayout((1, 2)), {"d": (3,)}),
}
FACTORIES = {**IDENTITY, **VALUE}


def package_dataclasses():
    """'module.Class' of every dataclass defined in a paroeig module."""
    found = set()
    for info in pkgutil.iter_modules(paroeig.__path__):
        module = importlib.import_module(f"paroeig.{info.name}")
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if (dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                found.add(f"{info.name}.{name}")
    return found


def test_every_dataclass_has_a_factory():
    assert package_dataclasses() == set(FACTORIES)


@pytest.mark.parametrize("name", sorted(IDENTITY))
def test_array_records_compare_by_identity(name):
    x = IDENTITY[name]()
    assert type(x).__name__ == name.split(".")[1]
    twin, other = copy.copy(x), IDENTITY[name]()
    assert x == x and not x != x
    assert x != twin and not x == twin
    assert x != other
    assert hash(x) == object.__hash__(x) != hash(twin)
    assert x in [x] and x not in [twin, other]
    assert len({x, twin, other}) == 3


@pytest.mark.parametrize("name", sorted(VALUE))
def test_scalar_records_compare_by_value(name):
    make, change = VALUE[name]
    x = make()
    assert x == copy.copy(x) == make()
    assert hash(x) == hash(copy.copy(x)) == hash(make())
    assert x != dataclasses.replace(x, **change)
