"""Tests for P1 assembly: analytic element matrices, kernel and mass
invariants, Dirichlet elimination, coefficient representations, and the
per-mesh ElementData carried across refinement."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import descendants
from paroeig import adapt, assembly, paro
from paroeig.assembly import (
    AssemblyError,
    Coefficients,
    ElementData,
    FemSystem,
    assemble,
    _QUAD_RULE,
    _quad_points,
    p1_gradients,
)
from paroeig.estimator import estimate
from paroeig.mesh import Mesh, build_initial_mesh, interpolate, refine, uniform_refine


def element_quad_form(m, local, u):
    """u^T A u for the matrix A over all vertices that the element
    matrices local (nt, 3, 3) sum to."""
    ut = u[m.triangles]
    return float(np.einsum("ti,tij,tj->", ut, local, ut))


def element_mass(m):
    """The exact P1 element mass matrices (nt, 3, 3), |T|/12 times
    [[2, 1, 1], [1, 2, 1], [1, 1, 2]]: the reference M is summed from."""
    return ((np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
             / 12.0)[None, :, :] * p1_gradients(m)[1][:, None, None])


def free_block(m, local):
    """The free block of the dense matrix over all vertices that the
    element matrices local (nt, 3, 3) sum to."""
    full = np.zeros((m.n_vertices,) * 2)
    np.add.at(full, (m.triangles[:, :, None], m.triangles[:, None, :]),
              local)
    free = m.interior_vertices()
    return full[np.ix_(free, free)]


def unit_right_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


class TestElementMatrices:
    def test_unit_right_triangle_stiffness(self):
        ke = ElementData(unit_right_triangle(), Coefficients.identity()).ke
        expected = 0.5 * np.array([[2.0, -1.0, -1.0],
                                   [-1.0, 1.0, 0.0],
                                   [-1.0, 0.0, 1.0]])
        assert_allclose(ke[0], expected, atol=1e-14)

    def test_exact_mass_formula_any_triangle(self):
        # one interior vertex inside four scalene triangles: M holds the
        # patch area / 6, each triangle's |T| / 12 summed where no edge
        # joins two free vertices
        m = Mesh(np.array([[0.2, -0.1], [1.7, 0.4], [0.6, 2.0],
                           [-1.1, 0.9], [0.5, 0.6]]),
                 np.array([[4, 0, 1], [4, 1, 2], [4, 2, 3], [4, 3, 0]]))
        sys = assemble(m, Coefficients.identity())
        patch = m.signed_areas().sum()
        assert sys.free_dofs.tolist() == [4]
        assert_allclose(sys.M.toarray(), [[patch / 6.0]], rtol=1e-14)
        # with free neighbours the edges carry |T| / 12 from both sides
        fine, _ = uniform_refine(m, 2)
        assert_allclose(assemble(fine, Coefficients.identity()).M.toarray(),
                        free_block(fine, element_mass(fine)), rtol=1e-14,
                        atol=0.0)

    def test_gradients_sum_to_zero(self):
        m, _ = uniform_refine(build_initial_mesh("l_shape"), 2)
        grads, areas = p1_gradients(m)
        assert_allclose(grads.sum(axis=1), 0.0, atol=1e-13)
        assert_allclose(areas.sum(), 3.0, rtol=1e-14)

    def test_reaction_term_adds_scaled_mass(self):
        m = unit_right_triangle()
        k0 = ElementData(m, Coefficients.identity()).ke
        k1 = ElementData(m, Coefficients(np.eye(2), 3.0)).ke
        assert_allclose(k1[0] - k0[0], 3.0 * element_mass(m)[0], rtol=1e-14)
        # and on the assembled pencil, K(c = 3) - K(c = 0) = 3 M
        m, _ = uniform_refine(build_initial_mesh("l_shape"), 2)
        s0 = assemble(m, Coefficients.identity())
        s1 = assemble(m, Coefficients(np.eye(2), 3.0))
        assert_allclose((s1.K - s0.K).toarray(), 3.0 * s0.M.toarray(),
                        rtol=1e-13, atol=1e-15)


class TestGlobalInvariants:
    def test_patch_test_constants_in_kernel(self):
        # every element row sums to zero, so the stiffness matrix over
        # all vertices annihilates constants
        m, _ = uniform_refine(build_initial_mesh("l_shape"), 3)
        ke = ElementData(m, Coefficients.identity()).ke
        assert np.abs(element_quad_form(m, ke, np.ones(m.n_vertices))) \
            <= 1e-10
        assert np.abs(ke.sum(axis=2)).max() <= 1e-10

    def test_mass_sum_equals_domain_area(self):
        # the element masses M is summed from add up to the domain area,
        # and M is their free block
        for domain, area in [("unit_square", 1.0), ("l_shape", 3.0)]:
            m, _ = uniform_refine(build_initial_mesh(domain), 3)
            me = element_mass(m)
            total = element_quad_form(m, me, np.ones(m.n_vertices))
            assert abs(total - area) <= 1e-12 * area
            assert_allclose(assemble(m, Coefficients.identity()).M.toarray(),
                            free_block(m, me), rtol=1e-14, atol=0.0)

    def test_symmetry_is_structural(self):
        # constant, table and callable coefficients, on meshes whose
        # element matrices round differently above and below the diagonal
        for m, coeffs in KERNEL_CASES:
            sys = assemble(m, coeffs)
            for s in (sys.K, sys.M):
                assert isinstance(s, sp.csr_matrix)
                assert (s != s.T).nnz == 0
                assert s.has_sorted_indices and s.has_canonical_format
            # one pattern, K's exact zeros included; M stores no zero
            assert np.array_equal(sys.K.indptr, sys.M.indptr)
            assert np.array_equal(sys.K.indices, sys.M.indices)
            assert np.all(sys.M.data != 0.0)

    def test_refinement_nestedness_piecewise_constant_data(self):
        m0 = build_initial_mesh("l_shape")
        rng = np.random.default_rng(3)
        tab_a = np.stack([np.diag(rng.uniform(0.5, 2.0, 2))
                          for _ in range(m0.n_triangles)])
        tab_c = rng.uniform(0.0, 2.0, m0.n_triangles)
        co = Coefficients(tab_a, tab_c)
        coarse, _ = uniform_refine(m0, 1)
        mid, first = refine(coarse, np.array([0, 3, 5]))
        fine, second = refine(mid, descendants(first, [0, 3, 5]))
        u = rng.standard_normal(coarse.n_vertices)
        u_f = interpolate(mid, fine, second,
                          interpolate(coarse, mid, first, u))
        qc = element_quad_form(coarse, ElementData(coarse, co).ke, u)
        qf = element_quad_form(fine, ElementData(fine, co).ke, u_f)
        assert abs(qf - qc) <= 1e-10 * qc

    def test_eliminated_system_is_spd(self):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 3)
        sys = assemble(m, Coefficients.identity())
        wk = np.linalg.eigvalsh(sys.K.toarray())
        wm = np.linalg.eigvalsh(sys.M.toarray())
        assert wk.min() > 0.0 and wm.min() > 0.0
        assert sys.K.shape == (sys.n_dofs, sys.n_dofs)
        assert sys.n_dofs == len(sys.free_dofs)


class TestElimination:
    def test_initial_unit_square_has_no_free_dofs(self):
        sys = assemble(build_initial_mesh("unit_square"),
                       Coefficients.identity())
        assert sys.n_dofs == 0
        assert sys.K.shape == sys.M.shape == (0, 0)

    def test_free_dofs_are_interior(self):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 2)
        sys = assemble(m, Coefficients.identity())
        assert not m.is_boundary_vertex[sys.free_dofs].any()
        assert sys.n_dofs == (~m.is_boundary_vertex).sum()


class TestCoefficients:
    def test_callable_matches_constant(self):
        m, _ = uniform_refine(build_initial_mesh("l_shape"), 1)
        # integer values are real numbers too, converted to float64
        callable_co = Coefficients(
            lambda x, y: np.tile(np.eye(2), (len(x), 1, 1)),
            lambda x, y: np.ones(len(x), dtype=np.int64))
        constant_co = Coefficients(np.eye(2), 1.0)
        assert_allclose(ElementData(m, callable_co).ke,
                        ElementData(m, constant_co).ke, atol=1e-13)
        s1, s2 = assemble(m, callable_co), assemble(m, constant_co)
        assert_allclose(s1.K.toarray(), s2.K.toarray(), atol=1e-13)
        assert_allclose(s1.M.toarray(), s2.M.toarray(), atol=1e-15)

    def test_table_follows_ancestors_through_refinement(self):
        # per-element stiffness on the fine mesh must scale by the table
        # entry of each triangle's initial-mesh ancestor
        m0 = build_initial_mesh("l_shape")
        tab = np.stack([np.eye(2) * (1.0 + t) for t in range(m0.n_triangles)])
        fine, _ = uniform_refine(m0, 2)
        ke_f = ElementData(fine, Coefficients(tab, 0.0)).ke
        ke_i = ElementData(fine, Coefficients.identity()).ke
        scale = 1.0 + fine.ancestor
        assert_allclose(ke_f, ke_i * scale[:, None, None], rtol=1e-13)

    def test_spd_violation_names_element(self):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 1)
        skew = Coefficients(
            lambda x, y: np.tile([[1.0, 2.0], [2.0, 1.0]], (len(x), 1, 1)),
            0.0)
        with pytest.raises(AssemblyError, match="element 0"):
            assemble(m, skew)

    def test_negative_reaction_names_element(self):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 1)
        tab = np.zeros(2)
        tab[1] = -0.5
        bad = Coefficients(np.eye(2), np.repeat(tab, 1))
        with pytest.raises(AssemblyError, match="element"):
            assemble(m, bad)

    # non-finite data must fail like negative data, not assemble into a
    # pencil with NaN entries; one test per coefficient representation
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["diffusion", "reaction"])
    def test_non_finite_constant_rejected(self, field, bad):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 1)
        a = np.eye(2)
        if field == "diffusion":
            a = np.array([[1.0, 0.0], [0.0, bad]])
        co = Coefficients(a, bad if field == "reaction" else 0.0)
        with pytest.raises(AssemblyError, match="element 0"):
            assemble(m, co)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["diffusion", "reaction"])
    def test_non_finite_table_rejected(self, field, bad):
        m0 = build_initial_mesh("unit_square")
        m, _ = uniform_refine(m0, 1)
        a = np.stack([np.eye(2)] * m0.n_triangles)
        c = np.zeros(m0.n_triangles)
        if field == "diffusion":
            a[1, 0, 0] = bad
        else:
            c[1] = bad
        first = int(np.nonzero(m.ancestor == 1)[0][0])
        with pytest.raises(AssemblyError, match=f"element {first}"):
            assemble(m, Coefficients(a, c))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["diffusion", "reaction"])
    def test_non_finite_callable_rejected(self, field, bad):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 1)

        def diffusion(x, y):
            a = np.tile(np.eye(2), (len(x), 1, 1))
            a[x > 0.6, 1, 1] = bad
            return a

        def reaction(x, y):
            return np.where(x > 0.6, bad, 0.0)

        co = (Coefficients(diffusion, 0.0) if field == "diffusion"
              else Coefficients(np.eye(2), reaction))
        with pytest.raises(AssemblyError, match="element"):
            assemble(m, co)

    def test_table_length_mismatch(self):
        m = build_initial_mesh("l_shape")
        with pytest.raises(AssemblyError, match="table"):
            assemble(m, Coefficients(np.stack([np.eye(2)] * 2), 0.0))

    @pytest.mark.parametrize("field, value", [
        ("diffusion", np.ones(2)),
        ("diffusion", 1.0),
        ("reaction", np.ones(1)),
        ("reaction", np.eye(2)),
        ("reaction", 1.0 + 0.0j),
        ("reaction", "soft"),
        # numpy complex values fail as a Python complex does, even with
        # a zero imaginary part, and do not lose their imaginary part
        ("diffusion", np.exp(0.5j) * np.eye(2)),
        ("diffusion", np.eye(2, dtype=np.complex64)),
        ("reaction", np.exp(0.5j)),
        ("reaction", np.complex128(2.0)),
    ])
    def test_malformed_callable_value_rejected(self, field, value):
        # the value repeated at every point: one value per point, each
        # of the wrong shape or not real numbers
        def repeat(x, y):
            return np.broadcast_to(value, x.shape + np.shape(value))

        m, _ = uniform_refine(build_initial_mesh("unit_square"), 1)
        co = (Coefficients(repeat, 0.0) if field == "diffusion"
              else Coefficients(np.eye(2), repeat))
        with pytest.raises(AssemblyError):
            assemble(m, co)

    def test_shape_change_between_points_rejected(self):
        # the values must have exactly (len(x),) + shape: another matrix
        # size at the points, or one point too few, names both shapes
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 1)
        for diffusion in (
                lambda px, py: np.tile(np.eye(3), (len(px), 1, 1)),
                lambda px, py: np.tile(np.eye(2), (len(px) - 1, 1, 1))):
            with pytest.raises(AssemblyError,
                               match=r"returned shape \(\d+, \d, \d\) for "
                                     r"point arrays of shape \(\d+,\)"):
                assemble(m, Coefficients(diffusion, 0.0))

    @pytest.mark.parametrize("field, f, message", [
        # written for one point at a time
        ("reaction", lambda x, y: 1.0, "returned shape"),
        ("diffusion", lambda x, y: np.eye(2), "returned shape"),
        ("reaction", lambda x, y: 1.0 if x > 0.5 else 0.0,
         r"failed on point arrays of shape \(\d+,\): The truth value"),
        ("diffusion", lambda x, y: np.stack([x, y], axis=1),
         r"returned shape \(\d+, 2\)"),
        # one value per point, but not real numbers
        ("reaction", lambda x, y: x + 1j * y, "real numbers"),
        ("diffusion", lambda x, y: np.tile(np.eye(2), (len(x), 1, 1))
         .astype(np.complex128), "real numbers"),
        ("reaction", lambda x, y: np.full(len(x), "1.0"), "real numbers"),
        ("reaction", lambda x, y: np.full(len(x), None), "real numbers"),
    ], ids=["scalar", "matrix", "if", "n_by_2", "complex_reaction",
            "complex_diffusion", "string", "object"])
    def test_callable_must_take_point_arrays(self, field, f, message):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 1)
        co = (Coefficients(f, 0.0) if field == "diffusion"
              else Coefficients(np.eye(2), f))
        with pytest.raises(AssemblyError, match=message):
            assemble(m, co)

    @pytest.mark.parametrize("make", [
        lambda: Coefficients(np.eye(2), np.complex128(2 + 0.5j)),
        lambda: Coefficients(np.eye(2), np.array([1.0, 1 + 0.5j])),
        lambda: Coefficients((1 + 0.5j) * np.eye(2), 0.0),
        lambda: Coefficients(np.eye(2), 1 + 1j),
        lambda: Coefficients.constant(np.eye(2), 1 + 1j),
        lambda: Coefficients(np.eye(2), "2.5"),
    ], ids=["complex_reaction", "complex_table", "complex_diffusion",
            "python_complex", "constant_complex", "string"])
    def test_constant_and_table_must_be_real(self, make):
        # the rule the callable values follow: real numbers, never an
        # imaginary part dropped with a warning
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 1)
        with pytest.raises(AssemblyError, match="must be real numbers"):
            assemble(m, make())


class TestNorms:
    def test_quadratic_form_matches_element_sum(self):
        m, _ = uniform_refine(build_initial_mesh("l_shape"), 2)
        co = Coefficients(np.diag([2.0, 0.5]), 1.5)
        sys = assemble(m, co)
        u = np.random.default_rng(11).standard_normal(sys.n_dofs)
        full = np.zeros(m.n_vertices)
        full[sys.free_dofs] = u
        ke = ElementData(m, co).ke
        via_elements = sum(
            full[tri] @ ke[i] @ full[tri]
            for i, tri in enumerate(m.triangles))
        direct = u @ (sys.K @ u)
        assert abs(via_elements - direct) <= 1e-12 * abs(direct)


def variable_coefficients(calls=None):
    """Callable coefficients as in `paroeig run`; calls, when given,
    records the number of points of every call of each field."""
    def diffusion(x, y):
        if calls is not None:
            calls["diffusion"].append(len(x))
        scale = 2.0 + np.sin(np.pi * x) * np.sin(np.pi * y)
        return scale[:, None, None] * np.eye(2)

    def reaction(x, y):
        if calls is not None:
            calls["reaction"].append(len(x))
        return x * x + y * y

    return Coefficients(diffusion, reaction)


def coefficient_cases():
    m0 = build_initial_mesh("l_shape")
    rng = np.random.default_rng(8)
    table = Coefficients(
        np.stack([np.diag(rng.uniform(0.5, 2.0, 2))
                  for _ in range(m0.n_triangles)]),
        rng.uniform(0.0, 2.0, m0.n_triangles))
    return {"constant": Coefficients(np.array([[2.0, 0.5], [0.5, 1.0]]),
                                     1.5),
            "table": table,
            "variable": variable_coefficients()}


COEFFICIENT_CASES = coefficient_cases()
BASE_MESH, _ = uniform_refine(build_initial_mesh("l_shape"), 2)


# two 1-by-2 rectangles on either side of the line x = -0.0, and fields
# that tell -0.0 from 0.0
SIGNED_ZERO_MESH = build_initial_mesh((
    np.array([[-1.0, -1.0], [-0.0, -1.0], [1.0, -1.0], [1.0, 1.0],
              [-0.0, 1.0], [-1.0, 1.0]]),
    np.array([[0, 1, 4], [0, 4, 5], [1, 2, 3], [1, 3, 4]])))


def signed_zero_diffusion(x, y):
    a = 2.0 + np.copysign(0.5, x)
    b = 0.3 * np.sin(x + 2.0 * y)
    return np.stack([np.stack([a, b], axis=-1),
                     np.stack([b, 2.0 + y * y], axis=-1)], axis=-2)


SIGNED_ZERO_COEFFS = Coefficients(
    signed_zero_diffusion,
    lambda x, y: 1.0 + np.copysign(0.5, x) + 0.25 * x * y)


def random_block(m, n, seed):
    vectors = np.random.default_rng(seed).standard_normal(
        (n, len(m.interior_vertices())))
    return paro.OrbitalBlock(vectors, np.arange(1.0, n + 1.0))


def new_triangles(coarse, fine):
    """Indices of the triangles of fine that are not in coarse."""
    old = set(map(tuple, coarse.triangles.tolist()))
    return np.array([t for t, tri in enumerate(fine.triangles.tolist())
                     if tuple(tri) not in old])


def one_call_per_field(n):
    """The calls of one sampling pass of n triangles: the reaction and
    the diffusion once on the 3n quadrature points, the diffusion four
    more times for the divergence's stencil point sets."""
    return {"diffusion": [3 * n] * 5, "reaction": [3 * n]}


def csr_bytes(csr):
    return csr.indptr.tobytes(), csr.indices.tobytes(), csr.data.tobytes()


def assert_same_pencil_matrix(got, want):
    """got and want store the same entries; the values are equal off the
    diagonal, where each sums two triangles' terms, and within 1e-15 of
    the largest entry on it, where the order of the sum may differ."""
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    rows = np.repeat(np.arange(want.shape[0]), np.diff(want.indptr))
    on_diagonal = rows == want.indices
    assert (got.data[~on_diagonal].tobytes()
            == want.data[~on_diagonal].tobytes())
    assert (np.abs(got.data - want.data).max(initial=0.0)
            <= 1e-15 * np.abs(want.data).max(initial=0.0))


def without_zeros(csr):
    """A copy of csr that does not store its exact zeros."""
    out = csr.copy()
    out.eliminate_zeros()
    return out


def coo_pencil(mesh, coeffs):
    """(K, M) as a COO scatter builds them: every element entry summed
    over all vertices, the lower triangle of the free block kept without
    its zeros, and its strict part mirrored above the diagonal."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    free = mesh.interior_vertices()
    out = []
    for local in (ElementData(mesh, coeffs).ke, element_mass(mesh)):
        whole = sp.coo_matrix((local.ravel(), (rows, cols)),
                              shape=(mesh.n_vertices,) * 2).tocsr()
        lower = sp.tril(whole, format="csr")[free][:, free]
        lower.eliminate_zeros()
        full = (lower + sp.tril(lower, k=-1).T).tocsr()
        full.sort_indices()
        out.append(full)
    return out


def graded_l_shape(levels):
    """The twice-refined L-shape refined levels times more at the
    triangles touching the reentrant corner."""
    m, _ = uniform_refine(build_initial_mesh("l_shape"), 2)
    for _ in range(levels):
        corner = (np.abs(m.vertices[m.triangles]).sum(axis=2) == 0.0)
        m, _ = refine(m, np.flatnonzero(corner.any(axis=1)))
    return m


class TestEdgePattern:
    @pytest.mark.parametrize("case", ["uniform", "graded", "callable"])
    def test_matches_the_coo_scatter(self, case):
        """K and M summed onto the edge pattern store what the COO path
        stores, with values within 1e-15; K keeps its exact zeros, which
        the COO path drops."""
        mesh = {"uniform": lambda: uniform_refine(
                    build_initial_mesh("unit_square"), 6)[0],
                "graded": lambda: graded_l_shape(8),
                "callable": lambda: graded_l_shape(4)}[case]()
        coeffs = (variable_coefficients() if case == "callable"
                  else Coefficients.identity())
        system = assemble(mesh, coeffs)
        k_ref, m_ref = coo_pencil(mesh, coeffs)
        assert_same_pencil_matrix(without_zeros(system.K), k_ref)
        assert_same_pencil_matrix(system.M, m_ref)
        if case == "uniform":
            # right angles: the stiffness of the diagonals is an exact
            # zero, which K stores on M's pattern
            assert system.K.count_nonzero() < system.K.nnz == system.M.nnz

    @settings(max_examples=25, deadline=None)
    @example(domain="unit_square", case="constant", picks=[])
    @given(domain=st.sampled_from(["unit_square", "l_shape"]),
           case=st.sampled_from(sorted(COEFFICIENT_CASES)),
           picks=st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1,
                                   max_size=6), max_size=4))
    def test_random_refinements_match_the_coo_scatter(self, domain, case,
                                                      picks):
        """The pattern scipy converts from the edge table carries K and M
        as the COO path does, with the same index dtypes, on meshes that
        random marks refine (the unit square starts with no free dof)."""
        mesh = build_initial_mesh(domain)
        for pick in picks:
            mesh, _ = refine(mesh, np.array(pick) % mesh.n_triangles)
        coeffs = COEFFICIENT_CASES[case]
        system = assemble(mesh, coeffs)
        for got, want in zip((without_zeros(system.K), system.M),
                             coo_pencil(mesh, coeffs), strict=True):
            assert got.nnz == want.nnz
            assert_same_pencil_matrix(got, want)
            assert got.indptr.dtype == want.indptr.dtype
            assert got.indices.dtype == want.indices.dtype

    @pytest.mark.parametrize("assembled", [True, False])
    def test_shifted_is_k_minus_sigma_m_on_the_mass_pattern(self,
                                                           assembled):
        mesh, _ = uniform_refine(build_initial_mesh("unit_square"), 4)
        system = assemble(mesh, Coefficients.identity())
        if not assembled:
            # a system built from copies, which share no index arrays
            system = FemSystem(K=system.K.copy(), M=system.M.copy(),
                               free_dofs=system.free_dofs,
                               vertices=system.vertices)
        op = system.shifted(19.7)
        assert isinstance(op, sp.csr_matrix)
        assert np.array_equal(op.indptr, system.M.indptr)
        assert np.array_equal(op.indices, system.M.indices)
        want = (system.K - 19.7 * system.M).toarray()
        assert np.array_equal(op.toarray(), want)

    def test_shifted_needs_k_inside_the_mass_pattern(self):
        # the pencil refuses K and M on different patterns up front
        with pytest.raises(AssemblyError, match="one pattern"):
            FemSystem(K=sp.csr_matrix(np.ones((2, 2))),
                      M=sp.identity(2, format="csr"),
                      free_dofs=np.arange(2), vertices=np.eye(2))
        with pytest.raises(AssemblyError, match="one pattern"):
            FemSystem(K=np.eye(2), M=np.eye(2), free_dofs=np.arange(2),
                      vertices=np.eye(2))


class TestElementData:
    @settings(max_examples=20, deadline=None)
    @given(case=st.sampled_from(sorted(COEFFICIENT_CASES)),
           picks=st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1,
                                   max_size=8), min_size=1, max_size=4))
    def test_extend_matches_fresh_build(self, case, picks):
        coeffs = COEFFICIENT_CASES[case]
        m = BASE_MESH
        data = ElementData(m, coeffs)
        for pick in picks:
            marked = np.array(pick) % m.n_triangles
            m, rmap = refine(m, marked)
            data = data.extend(rmap, m)
        fresh = ElementData(m, coeffs)
        for name in ElementData._FIELDS:
            got, want = getattr(data, name), getattr(fresh, name)
            if want is None:
                assert got is None
            else:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), name
        with_data = assemble(m, coeffs, data=data)
        without = assemble(m, coeffs)
        assert csr_bytes(with_data.K) == csr_bytes(without.K)
        assert csr_bytes(with_data.M) == csr_bytes(without.M)
        block = random_block(m, 2, seed=len(picks))
        assert (estimate(m, coeffs, block, data=data).per_element.tobytes()
                == estimate(m, coeffs, block).per_element.tobytes())

    def test_assemble_reads_the_carried_stiffness(self, monkeypatch):
        for coeffs in COEFFICIENT_CASES.values():
            data = ElementData(BASE_MESH, coeffs)
            # nothing is sampled or computed again from data
            monkeypatch.setattr(assembly, "_sample", None)
            monkeypatch.setattr(assembly, "_element_stiffness", None)
            carried = assemble(BASE_MESH, coeffs, data=data)
            monkeypatch.undo()
            assert not data.ke.flags.writeable
            fresh = assemble(BASE_MESH, coeffs)
            assert csr_bytes(carried.K) == csr_bytes(fresh.K)
            assert csr_bytes(carried.M) == csr_bytes(fresh.M)
            # M from the areas alone: the same for every coefficient
            assert csr_bytes(carried.M) == csr_bytes(
                assemble(BASE_MESH, Coefficients.identity()).M)

    def test_constant_and_table_data_are_stored_once(self):
        # one read-only float64 copy in the coefficients, and no copy per
        # triangle in the element data, before or after a refinement
        fine, rmap = refine(BASE_MESH, [0, 5, 9])
        for name in ("constant", "table"):
            given = COEFFICIENT_CASES[name]
            coeffs = Coefficients(given.diffusion, given.reaction)
            for value, source in ((coeffs.diffusion, given.diffusion),
                                  (coeffs.reaction, given.reaction)):
                assert value.dtype == np.float64
                assert not value.flags.writeable
                assert not np.shares_memory(value, source)
            data = ElementData(BASE_MESH, coeffs)
            for d in (data, data.extend(rmap, fine)):
                assert d.diffusion is None
                assert d.reaction is None
                assert d.div_rows is None

    @pytest.mark.parametrize("case", ["constant", "table"])
    def test_caller_edits_do_not_reach_a_run(self, case):
        # the caller's arrays, edited after Coefficients(...) and again
        # after ElementData(...), change neither extend nor assemble
        given = COEFFICIENT_CASES[case]
        diffusion = np.array(given.diffusion)
        reaction = np.array(given.reaction)
        coeffs = Coefficients(diffusion, reaction)
        diffusion *= 2.0
        data = ElementData(BASE_MESH, coeffs)
        diffusion *= 2.0
        reaction += 1.0
        fine, rmap = refine(BASE_MESH, [0, 5, 9])
        extended = data.extend(rmap, fine)
        assert extended.ke.tobytes() == ElementData(fine, given).ke.tobytes()
        want = assemble(fine, given)
        for system in (assemble(fine, coeffs, data=extended),
                       assemble(fine, coeffs)):
            assert csr_bytes(system.K) == csr_bytes(want.K)
            assert csr_bytes(system.M) == csr_bytes(want.M)
        for value in (coeffs.diffusion, coeffs.reaction):
            assert not value.flags.writeable

    @pytest.mark.parametrize("case", sorted(COEFFICIENT_CASES))
    def test_array_data_is_checked_once_per_run(self, case, monkeypatch):
        # constant and table values are checked when the run's first
        # element data is built; a callable's samples on every sampling
        # pass: the first mesh, each uniform pass and each later level
        calls = dict.fromkeys(["_check_spd_matrices",
                               "_check_reaction_values"], 0)
        for name in calls:
            def counting(*args, _name=name, _check=getattr(assembly, name)):
                calls[_name] += 1
                return _check(*args)
            monkeypatch.setattr(assembly, name, counting)
        levels = []
        config = adapt.AdaptConfig(max_refinements=3, initial_passes=2,
                                   budget_factor=1.0, tol1=1e-14)
        adapt.adaptive_solve(
            "l_shape", COEFFICIENT_CASES[case], 2, config,
            observer=lambda n, level, *_: levels.append(level))
        assert len(levels) == 4
        passes = config.initial_passes + len(levels)
        want = passes if case == "variable" else 1
        assert calls == dict.fromkeys(calls, want)

    def test_adaptive_solve_samples_each_triangle_once(self):
        # the initial mesh, then only the children of every refinement,
        # the uniform passes to the first level's mesh included: each
        # sampling pass calls each callable once per point set, and the
        # calls add up to 3 reaction and 15 diffusion points per sampled
        # triangle
        calls = {"diffusion": [], "reaction": []}
        coeffs = variable_coefficients(calls)
        initial = build_initial_mesh("l_shape")
        meshes = [initial, uniform_refine(initial, 1)[0]]
        config = adapt.AdaptConfig(max_refinements=3, initial_passes=2,
                                   budget_factor=1.0, tol1=1e-14)
        adapt.adaptive_solve(
            "l_shape", coeffs, 2, config,
            observer=lambda n, level, *_: meshes.append(level.mesh))
        assert len(meshes) == 6
        assert np.array_equal(meshes[2].triangles,
                              uniform_refine(initial, 2)[0].triangles)
        sampled = [meshes[0].n_triangles] + [
            len(new_triangles(coarse, fine))
            for coarse, fine in zip(meshes, meshes[1:])]
        want = {"diffusion": [], "reaction": []}
        for n in sampled:
            for name, pass_calls in one_call_per_field(n).items():
                want[name] += pass_calls
        assert calls == want
        assert sum(calls["diffusion"]) == 15 * sum(sampled)
        assert sum(calls["reaction"]) == 3 * sum(sampled)

    def test_each_sampling_pass_calls_each_callable_once(self):
        calls = {"diffusion": [], "reaction": []}
        coeffs = variable_coefficients(calls)
        data = ElementData(BASE_MESH, coeffs)
        assert calls == one_call_per_field(BASE_MESH.n_triangles)
        # assembly and the estimator read the samples, and a standalone
        # assemble samples once more
        calls.update(diffusion=[], reaction=[])
        block = random_block(BASE_MESH, 2, seed=3)
        assemble(BASE_MESH, coeffs, data=data)
        estimate(BASE_MESH, coeffs, block, data=data)
        assert calls == {"diffusion": [], "reaction": []}
        assemble(BASE_MESH, coeffs)
        assert calls == one_call_per_field(BASE_MESH.n_triangles)
        # extend samples the children only
        fine, rmap = refine(BASE_MESH, [0, 5, 9])
        calls.update(diffusion=[], reaction=[])
        data.extend(rmap, fine)
        assert calls == one_call_per_field(
            len(new_triangles(BASE_MESH, fine)))

    @settings(max_examples=15, deadline=None)
    @given(picks=st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1,
                                   max_size=6), max_size=5))
    def test_samples_match_a_per_point_loop(self, picks):
        m, coeffs = SIGNED_ZERO_MESH, SIGNED_ZERO_COEFFS
        data = ElementData(m, coeffs)
        for pick in picks:
            m, rmap = refine(m, np.array(pick) % m.n_triangles)
            data = data.extend(rmap, m)

        def at(f, x, y):
            # f at one point, called on one-point arrays
            return f(np.array([x]), np.array([y]))[0]

        pts = _quad_points(m, np.arange(m.n_triangles))
        diffusion = np.empty(pts.shape[:2] + (2, 2))
        reaction = np.empty(pts.shape[:2])
        div_rows = np.empty(pts.shape)
        for t, q in np.ndindex(pts.shape[:2]):
            (x, y), d = pts[t, q], 1e-6 * data.h_t[t]
            diffusion[t, q] = at(coeffs.diffusion, x, y)
            reaction[t, q] = at(coeffs.reaction, x, y)
            dax = (at(coeffs.diffusion, x + d, y)
                   - at(coeffs.diffusion, x - d, y)) / (2.0 * d)
            day = (at(coeffs.diffusion, x, y + d)
                   - at(coeffs.diffusion, x, y - d)) / (2.0 * d)
            div_rows[t, q] = dax[0, :] + day[1, :]
        assert np.array_equal(data.diffusion, diffusion)
        assert np.array_equal(data.reaction, reaction)
        assert np.array_equal(data.div_rows, div_rows)

    def test_non_finite_divergence_fails_when_sampled(self):
        # finite at the quadrature points, NaN at the stencil points
        # around them: the divergence is sampled with the diffusion, so
        # building the element data fails
        m = BASE_MESH
        mids = m.vertices[m.edges].mean(axis=1)
        points = set(map(tuple, mids.tolist()))

        def diffusion(x, y):
            out = np.full((len(x), 2, 2), np.nan)
            out[[p in points for p in zip(x.tolist(), y.tolist())]] = \
                np.eye(2)
            return out

        coeffs = Coefficients(diffusion, 0.0)
        for build in (ElementData, assemble):
            with pytest.raises(AssemblyError,
                               match="divergence is not finite on "
                                     "element 0$"):
                build(m, coeffs)

    def test_extend_rejects_a_map_from_another_mesh(self):
        coeffs = COEFFICIENT_CASES["variable"]
        data = ElementData(BASE_MESH, coeffs)
        other, _ = uniform_refine(BASE_MESH, 1)
        fine, rmap = refine(other, [0, 5])
        with pytest.raises(AssemblyError, match="does not chain"):
            data.extend(rmap, fine)
        fine, rmap = refine(BASE_MESH, [0, 5])
        with pytest.raises(AssemblyError, match="fine mesh"):
            data.extend(rmap, other)
        with pytest.raises(AssemblyError, match="another mesh"):
            assemble(fine, coeffs, data=data)
        # refine() with nothing marked adds no vertex: extend copies
        # every row and calls no coefficient
        calls = {"diffusion": [], "reaction": []}
        data = ElementData(BASE_MESH, variable_coefficients(calls))
        same, empty = refine(BASE_MESH, [])
        calls.update(diffusion=[], reaction=[])
        kept = data.extend(empty, same)
        assert calls == {"diffusion": [], "reaction": []}
        for name in ElementData._FIELDS:
            assert getattr(kept, name).tobytes() == \
                getattr(data, name).tobytes()
        with pytest.raises(AssemblyError, match="fine mesh"):
            data.extend(empty, other)

    def test_nan_on_a_child_names_its_fine_index(self):
        # the field turns bad after the coarse mesh was sampled: kept
        # rows are copied, so only a child can report it
        state = {"bad": False}

        def reaction(x, y):
            return np.where(state["bad"] & (x > 0.5), np.nan, 0.0)

        coeffs = Coefficients(np.eye(2), reaction)
        data = ElementData(BASE_MESH, coeffs)
        fine, rmap = refine(BASE_MESH, np.arange(0, BASE_MESH.n_triangles,
                                                 3))
        mids = fine.vertices[fine.edges].mean(axis=1)
        first = next(t for t in new_triangles(BASE_MESH, fine)
                     if (mids[fine.tri_edges[t], 0] > 0.5).any())
        state["bad"] = True
        with pytest.raises(AssemblyError, match=f"element {first}$"):
            data.extend(rmap, fine)


def einsum_gradients(m):
    """P1 gradients as the contraction of J^-T with the reference
    gradients, the reference for p1_gradients."""
    v = m.vertices[m.triangles]
    j11 = v[:, 1, 0] - v[:, 0, 0]
    j12 = v[:, 2, 0] - v[:, 0, 0]
    j21 = v[:, 1, 1] - v[:, 0, 1]
    j22 = v[:, 2, 1] - v[:, 0, 1]
    det = j11 * j22 - j12 * j21
    inv_jt = np.empty((len(det), 2, 2))
    inv_jt[:, 0, 0] = j22 / det
    inv_jt[:, 0, 1] = -j21 / det
    inv_jt[:, 1, 0] = -j12 / det
    inv_jt[:, 1, 1] = j11 / det
    ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    return np.einsum("tab,ib->tia", inv_jt, ref)


def einsum_system(m, data, grads):
    """(ke, K, M) from einsum element matrices, the reference for
    assemble: the free block of the dense matrix over all vertices whose
    upper triangle mirrors its lower one."""
    bary, weights = _QUAD_RULE
    nt, coeffs = m.n_triangles, data.coeffs

    def per_triangle(value, shape):
        # a constant repeated, or a table row per ancestor
        if value.shape == shape:
            return np.tile(value, (nt,) + (1,) * len(shape))
        return value[m.ancestor]

    if data.diffusion is None:
        a_eff = per_triangle(coeffs.diffusion, (2, 2))
    else:
        a_eff = np.einsum("q,tqab->tab", weights, data.diffusion)
    ke = np.einsum("tia,tab,tjb->tij", grads, a_eff, grads)
    ke *= data.areas[:, None, None]
    me = element_mass(m)
    if data.reaction is None:
        ke += per_triangle(coeffs.reaction, ())[:, None, None] * me
    else:
        re = np.einsum("q,tq,qi,qj->tij", weights, data.reaction, bary,
                       bary)
        ke += re * data.areas[:, None, None]
    tri = m.triangles.astype(np.int32)
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    free = m.interior_vertices()

    def free_block(local):
        whole = sp.coo_matrix((local.ravel(), (rows, cols)),
                              shape=(m.n_vertices, m.n_vertices))
        whole = whole.tocsr().toarray()
        whole = np.tril(whole) + np.tril(whole, k=-1).T
        return sp.csr_matrix(whole[np.ix_(free, free)])

    return ke, free_block(ke), free_block(me)


def _jittered_mesh():
    """The once-refined L-shape with its interior vertices moved off the
    dyadic grid, so gradients are not powers of two and every product
    in the element sums rounds."""
    m, _ = uniform_refine(build_initial_mesh("l_shape"), 1)
    vertices = m.vertices.copy()
    inner = ~m.is_boundary_vertex
    vertices[inner] += np.random.default_rng(4).uniform(
        -0.1, 0.1, (inner.sum(), 2))
    return build_initial_mesh((vertices, m.triangles))


JITTERED_MESH = _jittered_mesh()

# -0.0 off the diagonal and as the reaction: on the unit right triangle
# every product in ke[1, 2] is -0.0, so only a sum started from +0.0,
# as einsum's is, gives ke[1, 2] = +0.0
NEGATIVE_ZERO_COEFFS = Coefficients(np.array([[2.0, -0.0], [-0.0, 1.0]]),
                                    -0.0)

# (mesh, coefficients): the table is indexed by the L-shape's initial
# triangles
KERNEL_CASES = [
    (build_initial_mesh((unit_right_triangle().vertices, [[0, 1, 2]])),
     NEGATIVE_ZERO_COEFFS),
    *((BASE_MESH, COEFFICIENT_CASES[name])
      for name in sorted(COEFFICIENT_CASES)),
    (SIGNED_ZERO_MESH, SIGNED_ZERO_COEFFS),
    (SIGNED_ZERO_MESH, NEGATIVE_ZERO_COEFFS),
    (JITTERED_MESH, SIGNED_ZERO_COEFFS),
    (JITTERED_MESH, Coefficients(np.array([[2.0, 0.7], [0.7, 1.3]]), 0.3)),
]


class TestKernels:
    @settings(max_examples=30, deadline=None)
    @example(case=0, picks=[])
    # right angles on the signed-zero mesh: K stores exact zeros
    @example(case=5, picks=[[0], [0], [0], [0, 1]])
    @given(case=st.sampled_from(range(len(KERNEL_CASES))),
           picks=st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1,
                                   max_size=6), max_size=5))
    def test_kernels_match_the_einsum_formulas(self, case, picks):
        m, coeffs = KERNEL_CASES[case]
        for pick in picks:
            m, _ = refine(m, np.array(pick) % m.n_triangles)
        grads = einsum_gradients(m)
        # equal values; the einsum sum starts from +0.0, so a -0.0
        # entry may come back as +0.0 there
        assert np.array_equal(p1_gradients(m)[0], grads)
        data = ElementData(m, coeffs)
        ke, k_ref, m_ref = einsum_system(m, data, grads)
        assert data.ke.tobytes() == ke.tobytes()
        assert ElementData(m, coeffs).ke.tobytes() == ke.tobytes()
        system = assemble(m, coeffs, data=data)
        # K stores its exact zeros on M's pattern; the dense reference
        # stores no zero
        assert np.array_equal(system.K.indptr, system.M.indptr)
        assert np.array_equal(system.K.indices, system.M.indices)
        assert_same_pencil_matrix(without_zeros(system.K), k_ref)
        assert_same_pencil_matrix(system.M, m_ref)
        reference = ElementData(m, coeffs)
        reference.grads = grads
        block = random_block(m, 2, seed=len(picks))
        assert (estimate(m, coeffs, block, data=data).per_element.tobytes()
                == estimate(m, coeffs, block,
                            data=reference).per_element.tobytes())
