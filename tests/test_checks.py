"""One argument policy for every entry point, and the inputs that used
to slip past it.

Each case below once dropped an imaginary part with only a warning,
escaped as a bare builtin error, or was accepted though a bool is not
a number. Every one must now raise the module's own error.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import pencil
from paroeig import mesh as pm
from paroeig.adapt import (AdaptConfig, AdaptError, RunRecord,
                           adaptive_solve, default_seed_vectors, dorfler_mark)
from paroeig.assembly import (AssemblyError, Coefficients, ElementData,
                              assemble)
from paroeig.estimator import EstimatorError, Indicators, estimate
from paroeig.linalg import (LinAlgError, b_orthonormalize, dense_sym_gen_eig,
                            gram, minres_solve)
from paroeig.mesh import MeshError
from paroeig.paro import (ClusterLayout, OrbitalBlock, ParoError,
                          cluster_guesses, relative_change)
from paroeig.verify import (VerifyError, analytic_spectrum, dist_a,
                            fit_rate, reference_eig)

SQUARE = pm.build_initial_mesh("unit_square")
S3 = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
SYSTEM = pencil(S3, np.eye(3))
SINGULAR_M = pencil(S3, np.diag([1.0, 0.0, 1.0]))
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
        EstimatorError, lambda: Indicators(np.array([1.0 + 1j, 1.0]))),
    "orbital_block_complex_vectors": (
        ParoError, lambda: OrbitalBlock(COMPLEX, np.ones(2))),
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
    # a table assembled as one, a 3x3 matrix failed only at assembly
    "constant_diffusion_table": (
        AssemblyError, lambda: Coefficients.constant(
            np.tile(np.eye(2), (3, 1, 1)))),
    "constant_diffusion_3x3": (
        AssemblyError, lambda: Coefficients.constant(np.eye(3))),
    "adaptive_solve_config_none": (
        AdaptError, lambda: adaptive_solve(
            "unit_square", Coefficients.identity(), 1, None)),
    "cluster_guesses_strings": (
        ParoError, lambda: cluster_guesses(["a", "b"])),
    "relative_change_lengths": (
        ParoError, lambda: relative_change([1.0, 2.0], [1.0, 2.0, 3.0],
                                           [1.0, 2.0])),
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
    "reference_eig_bool_seed": (
        VerifyError, lambda: reference_eig(SYSTEM, 1, seed=True)),
    "reference_eig_negative_seed": (
        VerifyError, lambda: reference_eig(SYSTEM, 1, seed=-1)),
    # a singular M leaked ARPACK's error, or LAPACK's for every pair
    "reference_eig_singular_mass_lanczos": (
        VerifyError, lambda: reference_eig(SINGULAR_M, 1)),
    "reference_eig_singular_mass_dense": (
        VerifyError, lambda: reference_eig(SINGULAR_M, 3)),
    "default_seed_vectors_fractional_seed": (
        AdaptError, lambda: default_seed_vectors(SYSTEM, 1, seed=0.5)),
    # returned one row for three orbitals on a one-dof mesh
    "default_seed_vectors_more_orbitals_than_dofs": (
        AdaptError, lambda: default_seed_vectors(pencil([[4.0]], [[1.0]]), 3)),
    # the run grows from the initial mesh, which a Mesh instance is not
    "adaptive_solve_mesh_domain": (
        AdaptError, lambda: adaptive_solve(
            SQUARE, Coefficients.identity(), 1, AdaptConfig())),
    "adaptive_solve_bool_seed": (
        AdaptError, lambda: adaptive_solve(
            "unit_square", Coefficients.identity(), 1, AdaptConfig(),
            seed=True)),
    # numpy reads a bool beside integers as an integer
    "refine_bool_in_marks": (MeshError, lambda: pm.refine(SQUARE, [0, True])),
    "mesh_bool_in_triangles": (
        MeshError, lambda: pm.Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                                   [[0, 1, True]])),
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
    # compared elementwise, then failed the truth test with a ValueError
    "analytic_spectrum_array_domain": (
        VerifyError, lambda: analytic_spectrum(np.array(["unit_square"] * 2),
                                               3)),
    # the coordinates that order verify's LU, and the free dofs that
    # index them
    "fem_system_vertices_not_pairs": (
        AssemblyError, lambda: replace(SYSTEM, vertices=np.zeros((3, 3)))),
    "fem_system_vertices_flat": (
        AssemblyError, lambda: replace(SYSTEM, vertices=np.zeros(6))),
    "fem_system_vertices_complex": (
        AssemblyError, lambda: replace(SYSTEM, vertices=COMPLEX.T)),
    "fem_system_vertices_none": (
        AssemblyError, lambda: replace(SYSTEM, vertices=None)),
    "fem_system_free_dof_past_the_vertices": (
        AssemblyError, lambda: replace(SYSTEM, free_dofs=[0, 1, 3])),
    "fem_system_negative_free_dof": (
        AssemblyError, lambda: replace(SYSTEM, free_dofs=[-1, 0, 1])),
    "fem_system_fractional_free_dofs": (
        AssemblyError, lambda: replace(SYSTEM, free_dofs=[0.0, 1.0, 2.0])),
    "fem_system_free_dofs_not_one_per_row": (
        AssemblyError, lambda: replace(SYSTEM, free_dofs=[0, 1])),
    # a NaN or inf tol passed a residual check that could never fire; a
    # zero or negative one failed only after the LU and the Lanczos run
    "reference_eig_nan_tol": (
        VerifyError, lambda: reference_eig(SYSTEM, 1, tol=np.nan)),
    "reference_eig_inf_tol": (
        VerifyError, lambda: reference_eig(SYSTEM, 1, tol=np.inf)),
    "reference_eig_zero_tol": (
        VerifyError, lambda: reference_eig(SYSTEM, 1, tol=0.0)),
    "reference_eig_negative_tol": (
        VerifyError, lambda: reference_eig(SYSTEM, 1, tol=-1.0)),
    # accepted, then failed later with numpy's bare ValueError (marking)
    # or TypeError (records_to_csv)
    "indicators_2d": (EstimatorError, lambda: Indicators(np.ones((2, 2)))),
    "indicators_0d": (EstimatorError, lambda: Indicators(np.float64(1.0))),
    "run_record_2d_ritz_values": (
        AdaptError, lambda: RunRecord(0, 3, np.ones((1, 2)), 1.0, 1, np.inf,
                                      0.0)),
    # numpy's bare matmul ValueError
    "dist_a_vector_length": (
        VerifyError, lambda: dist_a(SYSTEM, np.ones(4), np.ones(3))),
    # a record of the wrong type leaked a bare AttributeError
    "adaptive_solve_dict_coeffs": (
        AdaptError, lambda: adaptive_solve(
            "unit_square", {"diffusion": np.eye(2)}, 1, AdaptConfig())),
    "adaptive_solve_none_coeffs": (
        AdaptError, lambda: adaptive_solve("unit_square", None, 1,
                                           AdaptConfig())),
    "adaptive_solve_array_coeffs": (
        AdaptError, lambda: adaptive_solve("unit_square", np.eye(2), 1,
                                           AdaptConfig())),
    "assemble_none_mesh": (
        AssemblyError, lambda: assemble(None, Coefficients.identity())),
    "assemble_string_coeffs": (AssemblyError, lambda: assemble(SQUARE, "x")),
    "element_data_none_coeffs": (
        AssemblyError, lambda: ElementData(SQUARE, None)),
    "estimate_none_block": (
        EstimatorError, lambda: estimate(SQUARE, Coefficients.identity(),
                                         None)),
    "dorfler_mark_array": (AdaptError, lambda: dorfler_mark(np.ones(3), 0.5)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_argument_raises_the_module_error(case):
    error, call = CASES[case]
    with pytest.raises(error):
        call()


FINE_SQUARE = pm.uniform_refine(SQUARE, 10)[0]


@pytest.mark.parametrize("domain,wording", [
    (SQUARE, r"^bad domain: domain must be a name or a \(vertices, "
             r"triangles\) pair$"),
    ("nowhere", r"^bad domain: unknown domain 'nowhere'$"),
    # 961 free dofs, over the exact coarse solve's 400
    ((FINE_SQUARE.vertices, FINE_SQUARE.triangles),
     r"^the domain's initial mesh is too fine: first mesh has 961 free "
     r"dofs, over COARSE_DOFS = 400; start from a coarser mesh and raise "
     r"initial_passes$"),
])
def test_adaptive_solve_names_a_bad_domain(domain, wording):
    # these used to read "refinement level 0 failed: ..."
    with pytest.raises(AdaptError, match=wording) as err:
        adaptive_solve(domain, Coefficients.identity(), 1, AdaptConfig())
    assert err.value.records == []
