"""
Driving a run from a config file and reading the artifacts back
===============================================================

The command-line front end takes a flat key=value config and leaves
three artifacts in the output directory: history.csv (one row per
refinement level), mesh.txt (the final mesh), and orbitals.txt (the
final orbital coefficients). Everything is plain text and
deterministic for a fixed seed.
"""

import pathlib
import tempfile

import numpy as np

from paroeig import cli, mesh

with tempfile.TemporaryDirectory(prefix="paroeig_demo_") as tmp:
    workdir = pathlib.Path(tmp)
    config = workdir / "run.cfg"
    config.write_text("""
# three orbitals on the unit square (the ground state and the double
# 5 pi^2 pair; two would split that pair), stop once the values settle
# to 2%
domain=unit_square
n_orbitals=3
theta=0.5
tol1=0.02
tol2=1e-10
max_inner=40
max_refinements=6
initial_passes=4
seed=1
""")

    code = cli.main(["run", "--config", str(config), "--out", str(workdir)])
    print(f"exit code {code} (0 converged, 2 refinement budget exhausted)\n")

    print("history.csv:")
    print((workdir / "history.csv").read_text().strip())

    final_mesh = mesh.load(workdir / "mesh.txt")
    print(f"\nmesh.txt: {final_mesh.n_vertices} vertices, "
          f"{final_mesh.n_triangles} triangles, conforming")

    lines = (workdir / "orbitals.txt").read_text().split()
    n_dofs = int(lines[0])
    orbitals = np.array([float(v) for v in lines[1:]]).reshape(3, n_dofs)
    print(f"orbitals.txt: 3 orbitals x {n_dofs} dofs, coefficient ranges "
          f"{[f'{r.min():.3f}..{r.max():.3f}' for r in orbitals]}")

    print("\nclosed-form spectrum for comparison:")
    cli.main(["spectrum", "--count", "3"])
