"""Command-line front end: config parsing, run orchestration, artifacts.

Subcommands:
    run       adaptive solve; writes history.csv, mesh.txt, orbitals.txt
    verify    adaptive solve checked against a dense-quality reference
              eigensolver on every level; writes verify.csv
    spectrum  print the closed-form unit-square eigenvalues

Config files are flat key=value text, one key per line, "#" comments.
The coefficients key names a case: identity, constant (diffusion times
I plus reaction), anisotropic (diag(4, 1)) or variable (callables:
diffusion (2 + sin(pi x) sin(pi y)) I, reaction x^2 + y^2).
"""

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import mesh as mesh_mod
from .adapt import AdaptConfig, AdaptError, adaptive_solve, records_to_csv
from .assembly import AssemblyError, Coefficients
from .estimator import EstimatorError, estimate
from .linalg import LinAlgError
from .mesh import MeshError
from .paro import ParoError, initial_block
from .verify import (VerifyError, analytic_spectrum, dist_a,
                     quasi_orthogonality_report, reference_eig)

__all__ = ["CliError", "RunConfig", "parse_config", "build_coefficients",
           "cmd_run", "cmd_verify", "cmd_spectrum", "main"]


class CliError(ValueError):
    """Configuration or orchestration failure reported to the user."""


@dataclass(frozen=True)
class RunConfig:
    """Flat run description parsed from a key=value file.

    theta, tol1, tol2, max_refinements, max_inner, budget_factor and
    initial_passes are the AdaptConfig fields of the same names, with
    its defaults; AdaptConfig validates them. A budget_factor of zero
    means "off". threads is parsed so that old config files still load
    and is otherwise ignored: the orbital solves run as one block.
    """
    domain: str = "unit_square"
    coefficients: str = "identity"
    diffusion: float = 1.0
    reaction: float = 0.0
    n_orbitals: int = 1
    theta: float = AdaptConfig.theta
    tol1: float = AdaptConfig.tol1
    tol2: float = AdaptConfig.tol2
    max_refinements: int = AdaptConfig.max_refinements
    max_inner: int = AdaptConfig.max_inner
    budget_factor: float = AdaptConfig.budget_factor or 0.0
    initial_passes: int = AdaptConfig.initial_passes
    seed: int = 0
    threads: int = 0
    out_dir: str = "."


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config(text):
    """Parse flat key=value text into a RunConfig.

    Raises CliError with a line-numbered diagnostic for anything
    malformed: missing "=", unknown or duplicate keys, bad numbers.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"line {lineno}: expected key=value, got "
                           f"{line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise CliError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise CliError(f"line {lineno}: duplicate key {key!r}")
        kind = _FIELD_TYPES[key]
        try:
            values[key] = kind(value) if kind is not str else value
        except ValueError:
            raise CliError(f"line {lineno}: expected {kind.__name__} for "
                           f"{key}, got {value!r}") from None
    return RunConfig(**values)


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def _variable_case():
    def diffusion(x, y):
        scale = 2.0 + np.sin(np.pi * x) * np.sin(np.pi * y)
        return scale[:, None, None] * np.eye(2)

    return Coefficients(diffusion, lambda x, y: x * x + y * y)


_NAMED_CASES = {
    "anisotropic": lambda: Coefficients.constant(np.diag([4.0, 1.0])),
    "variable": _variable_case,
}


def build_coefficients(config):
    name = config.coefficients
    if name == "identity":
        return Coefficients.identity()
    if name == "constant":
        return Coefficients.constant(config.diffusion * np.eye(2),
                                     config.reaction)
    if name in _NAMED_CASES:
        return _NAMED_CASES[name]()
    known = ", ".join(["identity", "constant"] + sorted(_NAMED_CASES))
    raise CliError(f"unknown coefficient case {name!r}; choose one of "
                   f"{known}")


def build_adapt_config(config):
    keys = {f.name: getattr(config, f.name) for f in fields(AdaptConfig)}
    return AdaptConfig(**dict(keys, budget_factor=keys["budget_factor"]
                              or None))


def _apply_overrides(config, out_dir):
    if out_dir is not None:
        config = replace(config, out_dir=out_dir)
    return config


def _orbitals_text(block):
    """Vector dump: first line n_dofs, then each orbital's values, one
    per line, orbitals in flat cluster order."""
    lines = [str(block.vectors.shape[1])]
    for row in block.vectors:
        lines.extend(repr(float(v)) for v in row)
    return "\n".join(lines) + "\n"


def _make_out_dir(path):
    """Create the output directory before the solve, so that a path
    that cannot be one fails before any work is done."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {path}: "
                       f"{exc}") from exc


def _write(out_dir, name, text):
    path = os.path.join(out_dir, name)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _summary_line(records, block):
    head = f"{records[-1].n},{records[-1].n_dofs}"
    tail = ",".join(repr(float(v)) for v in block.ritz_values)
    return f"{head},{tail}"


def cmd_run(config_path, out_dir=None):
    """Adaptive solve from a config file; exit 0 on convergence, 2 when
    max_refinements ran out first."""
    config = _apply_overrides(load_config(config_path), out_dir)
    coeffs = build_coefficients(config)
    _make_out_dir(config.out_dir)
    records, block, final_mesh = adaptive_solve(
        config.domain, coeffs, config.n_orbitals,
        build_adapt_config(config), seed=config.seed)
    _write(config.out_dir, "history.csv", records_to_csv(records))
    _write(config.out_dir, "mesh.txt", mesh_mod.dumps(final_mesh))
    _write(config.out_dir, "orbitals.txt", _orbitals_text(block))
    print(_summary_line(records, block))
    return 0 if records[-1].delta1 <= config.tol1 else 2


_RITZ_MATCH_TOL = 1e-8
_CLUSTER_DIST_TOL = 1e-6
_ETA_RATIO_TOL = 1e-4


def cmd_verify(config_path, out_dir=None):
    """Adaptive solve with a per-level reference eigensolver check.

    Emits verify.csv (per level: cluster count q, cluster distances,
    per-pair value gaps, estimator ratio) and prints one PASS/FAIL line
    per final-level check; exit 0 only if every check passes. The
    cluster layout may change between levels, so the N dist_a columns
    of a level with q < N clusters end in N - q empty cells.
    """
    config = _apply_overrides(load_config(config_path), out_dir)
    coeffs = build_coefficients(config)
    _make_out_dir(config.out_dir)
    n = config.n_orbitals
    lines = [",".join(["n", "n_dofs", "q"]
                      + [f"dist_a_{i}" for i in range(n)]
                      + [f"gap_{j}" for j in range(n)] + ["eta_ratio"])]
    last = {}

    def observer(level, current, system, block, indicators, data):
        ref = reference_eig(system, n)
        dists = [dist_a(system, block.vectors[s], ref.vectors[s])
                 for s in block.layout.cluster_slices()]
        gaps = list(block.ritz_values - ref.eigenvalues)
        ref_block = initial_block(system, ref.vectors)
        eta_ref_sq = estimate(current, coeffs, ref_block,
                              data=data).global_sq
        ratio = float(np.sqrt(indicators.global_sq / eta_ref_sq))
        lines.append(",".join(
            [str(level), str(system.n_dofs), str(len(dists))]
            + [repr(float(v)) for v in dists] + [""] * (n - len(dists))
            + [repr(float(v)) for v in gaps + [ratio]]))
        last.update(system=system, block=block, ref=ref, dists=dists,
                    ratio=ratio)

    records, block, _ = adaptive_solve(
        config.domain, coeffs, n, build_adapt_config(config),
        seed=config.seed, observer=observer)

    _write(config.out_dir, "verify.csv", "\n".join(lines) + "\n")

    ref = last["ref"]
    rel = float(np.max(np.abs(last["block"].ritz_values - ref.eigenvalues)
                       / np.abs(ref.eigenvalues)))
    reports = quasi_orthogonality_report(last["system"], last["block"],
                                         ref, last["block"].layout)
    checks = [
        ("ritz_match", rel <= _RITZ_MATCH_TOL, rel),
        ("cluster_distance", max(last["dists"]) <= _CLUSTER_DIST_TOL,
         max(last["dists"])),
        ("quasi_orthogonality", all(r.bound_ok for r in reports),
         max(max(r.per_vector) for r in reports)),
        ("estimator_ratio", abs(last["ratio"] - 1.0) <= _ETA_RATIO_TOL,
         last["ratio"]),
    ]
    for name, ok, value in checks:
        print(f"{name} {'PASS' if ok else 'FAIL'} {float(value)!r}")
    return 0 if all(ok for _, ok, _ in checks) else 1


def cmd_spectrum(count):
    for value in analytic_spectrum("unit_square", count):
        print(repr(float(value)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="paroeig",
        description="Adaptive eigensolver for clustered elliptic "
                    "eigenproblems with parallel orbital updates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="flat key=value run description")
        p.add_argument("--out", default=None,
                       help="output directory (overrides out_dir)")
    p = sub.add_parser("spectrum")
    p.add_argument("--count", type=int, default=6,
                   help="how many unit-square eigenvalues to print")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out)
        if args.command == "verify":
            return cmd_verify(args.config, args.out)
        return cmd_spectrum(args.count)
    except (CliError, AdaptError, AssemblyError, EstimatorError,
            LinAlgError, MeshError, ParoError, VerifyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
