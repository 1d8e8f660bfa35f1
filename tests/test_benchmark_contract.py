"""What the benchmark in perfbench/ reads from the package.

perfbench/ traces the library by swapping wrappers in at module
attributes and describes its adaptive workloads as RunConfig keys. Both
must keep resolving when the package changes; these checks fail fast,
without running a workload.
"""

import inspect
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import paroeig
import paroeig.cli
from paroeig.linalg import minres_solve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("target", spans.targets(paroeig),
                         ids=lambda t: f"{t[0].__name__}.{t[1]}")
def test_every_traced_attribute_resolves(target):
    module, attr, _, _ = target
    assert callable(getattr(module, attr, None))


@pytest.mark.parametrize("name", sorted(workloads.ADAPTIVE))
def test_adaptive_workloads_are_run_configs(name):
    keys = set(workloads.ADAPTIVE[name])
    assert keys <= {f.name for f in fields(paroeig.cli.RunConfig)}
    config = paroeig.cli.RunConfig(**workloads.ADAPTIVE[name])
    paroeig.cli.build_adapt_config(config)
    paroeig.cli.build_coefficients(config)
    # workloads.build passes threads= to adaptive_solve
    assert "threads" in inspect.signature(
        paroeig.adapt.adaptive_solve).parameters


def test_minres_result_has_the_fields_spans_read():
    # spans._minres_counts reads .iterations and .flag of every traced
    # minres_solve result
    s = np.diag([1.0, 2.0, 3.0])
    res = minres_solve([s, s], np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]))
    assert isinstance(res.iterations, int) and res.iterations == 3
    assert isinstance(res.flag, str) and res.flag == "converged"
    assert spans._minres_counts(res) == {"iters": 3, "flag": "converged"}
