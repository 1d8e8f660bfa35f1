"""Print SHA-256 fingerprints of the benchmark workloads' outputs.

One line per adaptive workload of perfbench/workloads.py and seed (0
and 7) covers the run's records_to_csv text, the final mesh's dump and
the final orbital vectors. One more line covers every table of the
UNIFORM_PASSES-pass uniform L-shape mesh and the K and M assembled on
it (reference_eig is not run). Two checkouts that print the same lines
computed the same numbers, byte for byte.

Run it with one BLAS thread, since a threaded BLAS may sum in another
order from run to run:

    OPENBLAS_NUM_THREADS=1 python tools/fingerprint.py [--src DIR]

--src imports paroeig from DIR (default: this checkout's src/), so the
same script can fingerprint another checkout's sources.
"""

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 7)


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the paroeig package")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from paroeig import adapt, assembly, cli, mesh
    from workloads import ADAPTIVE, UNIFORM, UNIFORM_PASSES
    if src not in Path(mesh.__file__).resolve().parents:
        sys.exit(f"paroeig imported from {mesh.__file__}, not from {src}")

    for name, fields in ADAPTIVE.items():
        config = cli.RunConfig(**fields)
        for seed in SEEDS:
            run = replace(config, seed=seed)
            records, block, final = adapt.adaptive_solve(
                run.domain, cli.build_coefficients(run), run.n_orbitals,
                cli.build_adapt_config(run), seed=seed)
            print(name, seed, _digest([adapt.records_to_csv(records),
                                       mesh.dumps(final),
                                       block.vectors.tobytes()]))

    fine, _ = mesh.uniform_refine(mesh.build_initial_mesh("l_shape"),
                                  UNIFORM_PASSES)
    system = assembly.assemble(fine, assembly.Coefficients.identity())
    parts = [getattr(fine, table).tobytes() for table in mesh._TABLES]
    for matrix in (system.K, system.M):
        parts += [matrix.data.tobytes(), matrix.indices.tobytes(),
                  matrix.indptr.tobytes()]
    print(UNIFORM, UNIFORM_PASSES, _digest(parts))


if __name__ == "__main__":
    main()
