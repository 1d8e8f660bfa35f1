"""One argument policy for every entry point, and the inputs that used
to slip past it.

Each case below once dropped an imaginary part with only a warning,
escaped as a bare builtin error, or was accepted though a bool is not
a number. Every one must now raise the module's own error.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from paroeig import mesh as pm
from paroeig.adapt import AdaptConfig, AdaptError, adaptive_solve
from paroeig.assembly import AssemblyError, Coefficients, FemSystem
from paroeig.estimator import EstimatorError, Indicators
from paroeig.linalg import (LinAlgError, b_orthonormalize, dense_sym_gen_eig,
                            gram, minres_solve)
from paroeig.mesh import MeshError
from paroeig.paro import (ClusterLayout, OrbitalBlock, ParoError,
                          cluster_guesses, relative_change)
from paroeig.verify import (VerifyError, analytic_spectrum, fit_rate,
                            reference_eig)

SQUARE = pm.build_initial_mesh("unit_square")
S3 = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
SYSTEM = FemSystem(K=S3, M=sp.identity(3, format="csr"),
                   free_dofs=np.arange(3))
COMPLEX = np.array([[1.0, 0.5j, 0.0], [0.0, 1.0, 0.0]])
CASES = {
    # imaginary part dropped with only a ComplexWarning
    "mesh_complex_vertices": (
        MeshError, lambda: pm.Mesh(SQUARE.vertices + 1e-3j,
                                   SQUARE.triangles)),
    "minres_complex_rhs": (
        LinAlgError, lambda: minres_solve([S3], COMPLEX[:1])),
    "gram_complex": (LinAlgError, lambda: gram(COMPLEX, S3)),
    "b_orthonormalize_complex": (
        LinAlgError, lambda: b_orthonormalize(COMPLEX, S3)),
    "dense_sym_gen_eig_complex": (
        LinAlgError, lambda: dense_sym_gen_eig(np.eye(2) + 0j, np.eye(2))),
    "indicators_complex": (
        EstimatorError, lambda: Indicators(np.array([1.0 + 1j, 1.0]), 2.0)),
    "orbital_block_complex_vectors": (
        ParoError, lambda: OrbitalBlock(ClusterLayout((2,)), COMPLEX,
                                        np.ones(2), np.ones(1))),
    # bare builtin errors
    "mesh_string_vertices": (
        MeshError, lambda: pm.Mesh(np.full((4, 2), "x"), SQUARE.triangles)),
    "mesh_ragged_vertices": (
        MeshError, lambda: pm.Mesh([[0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0]],
                                   [[0, 1, 2]])),
    "mesh_triangles_none": (
        MeshError, lambda: pm.Mesh(SQUARE.vertices, None)),
    "refine_none": (MeshError, lambda: pm.refine(SQUARE, None)),
    "constant_reaction_table": (
        AssemblyError, lambda: Coefficients.constant(np.eye(2), [1.0, 2.0])),
    "adaptive_solve_config_none": (
        AdaptError, lambda: adaptive_solve(
            "unit_square", Coefficients.identity(), 1, None)),
    "cluster_guesses_strings": (
        ParoError, lambda: cluster_guesses(["a", "b"])),
    "relative_change_lengths": (
        ParoError, lambda: relative_change([1.0, 2.0], [1.0, 2.0, 3.0],
                                           [1.0, 2.0])),
    "indicators_string_total": (
        EstimatorError, lambda: Indicators(np.array([1.0, 1.0]), "2")),
    "fit_rate_strings": (
        VerifyError, lambda: fit_rate(["1", "2", "3"], [1.0, 2.0, 3.0])),
    # used to reach LAPACK, which printed DLASCL lines to stderr
    "fit_rate_nan": (
        VerifyError, lambda: fit_rate([1.0, 2.0, np.nan], [1.0, 2.0, 3.0])),
    "reference_eig_string_tol": (
        VerifyError, lambda: reference_eig(SYSTEM, 1, tol="x")),
    "minres_string_tol": (
        LinAlgError, lambda: minres_solve([S3], np.ones((1, 3)), tol="1")),
    "minres_string_max_iter": (
        LinAlgError, lambda: minres_solve([S3], np.ones((1, 3)),
                                          max_iter="3")),
    "minres_operator_size": (
        LinAlgError, lambda: minres_solve([S3], np.ones((1, 4)))),
    "dense_sym_gen_eig_strings": (
        LinAlgError, lambda: dense_sym_gen_eig([["1"]], [["1"]])),
    # accepted, though a bool is neither a count nor a real number
    "minres_fractional_max_iter": (
        LinAlgError, lambda: minres_solve([S3], np.ones((1, 3)),
                                          max_iter=2.5)),
    "adapt_config_bool_max_refinements": (
        AdaptError, lambda: AdaptConfig(max_refinements=True)),
    "adapt_config_bool_max_inner": (
        AdaptError, lambda: AdaptConfig(max_inner=True)),
    "adapt_config_bool_initial_passes": (
        AdaptError, lambda: AdaptConfig(initial_passes=True)),
    "uniform_refine_bool_passes": (
        MeshError, lambda: pm.uniform_refine(SQUARE, True)),
    "reference_eig_bool_pairs": (
        VerifyError, lambda: reference_eig(SYSTEM, True)),
    "reference_eig_bool_max_iter": (
        VerifyError, lambda: reference_eig(SYSTEM, 1, max_iter=True)),
    "analytic_spectrum_bool_count": (
        VerifyError, lambda: analytic_spectrum("unit_square", True)),
    "cluster_layout_bool_entry": (
        ParoError, lambda: ClusterLayout((2, True))),
    "adapt_config_bool_tol1": (AdaptError, lambda: AdaptConfig(tol1=True)),
    "minres_bool_tol": (
        LinAlgError, lambda: minres_solve([S3], np.ones((1, 3)), tol=True)),
    "constant_bool_reaction": (
        AssemblyError, lambda: Coefficients.constant(np.eye(2), True)),
    # the ids were truncated to integers before Mesh saw them
    "initial_mesh_fractional_ids": (
        MeshError, lambda: pm.build_initial_mesh(
            ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2.7]]))),
    # found by tests/test_fuzz.py: an overflow or NaN warning, then
    # infinite areas, a NaN change and an arbitrary slope
    "mesh_overflowing_vertices": (
        MeshError, lambda: pm.Mesh(1e200 * SQUARE.vertices,
                                   SQUARE.triangles)),
    "relative_change_inf": (
        ParoError, lambda: relative_change([np.inf], [np.inf], [1.0])),
    "fit_rate_one_x": (
        VerifyError, lambda: fit_rate([2.0, 2.0, 2.0], [1.0, 1.0, 1.5])),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_argument_raises_the_module_error(case):
    error, call = CASES[case]
    with pytest.raises(error):
        call()

