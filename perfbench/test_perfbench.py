"""Tests of the benchmark itself; the package's suite does not collect them.

    python3 -m pytest perfbench/test_perfbench.py -q      # about 2 minutes

The slow test runs every workload twice, traced, with the same seed.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

# must repeat exactly between two same-seed runs
COUNTS = ("adapt.levels", "adapt.sweeps", "mesh.final_dofs",
          "linalg.minres_iters", "assembly.assemble_calls")


def traced_result(name):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         "0", "--seconds", "0", "--trace", "1"],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_repeat_and_phases_close(name):
    first, second = traced_result(name), traced_result(name)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        closure = result["metrics"]["trace.closure"]["value"]
        assert abs(closure - 1.0) <= 0.05
    for key in COUNTS:
        assert (first["metrics"][key]["value"]
                == second["metrics"][key]["value"]), key


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "lshape_n1", "--seed", "0", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_only_same_thread_children():
    main, pool = 1, 2
    trace = [
        spans.Span(spans.ROOT, 1, None, main, 0.0, 10.0),
        spans.Span("adapt.adaptive_solve", 2, 1, main, 0.5, 9.5),
        spans.Span("paro.orbital_update", 3, 2, main, 1.0, 7.0),
        spans.Span("linalg.minres", 4, None, pool, 1.5, 6.5),
        spans.Span("linalg.minres", 5, None, pool, 1.5, 5.0),
    ]
    per_name, root_s, closure = spans.summarize(trace, main)
    assert root_s == 10.0
    assert per_name["paro.orbital_update"]["self_s"] == 6.0
    assert per_name["adapt.adaptive_solve"]["self_s"] == 3.0
    assert per_name["linalg.minres"]["busy_s"] == 8.5
    assert per_name["linalg.minres"]["self_s"] == 0.0
    assert closure == pytest.approx(0.9)


def test_tracer_links_spans_per_thread_and_restores_names():
    paroeig = workloads.load_paroeig()
    before = [getattr(m, a) for m, a, _, _ in spans.targets(paroeig)]
    tracer = spans.Tracer()
    with tracer.installed(paroeig):
        coarse = paroeig.mesh.build_initial_mesh("unit_square")
        worker = threading.Thread(target=paroeig.mesh.uniform_refine,
                                  args=(coarse, 2))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
    after = [getattr(m, a) for m, a, _, _ in spans.targets(paroeig)]
    assert all(x is y for x, y in zip(before, after))
    outer, = [s for s in tracer.spans if s.name == "mesh.uniform_refine"]
    inner = [s for s in tracer.spans if s.name == "mesh.refine"]
    assert outer.parent is None and outer.thread != tracer.main_thread
    assert len(inner) == 2
    assert all(s.parent == outer.ident for s in inner)
