"""Every public entry point returns or raises one of the package's errors.

Each property feeds one entry point generated input, well-formed or not,
and fails on any other exception: a bare ValueError or TypeError, an
IndexError from deep inside numpy, or a warning that pytest's
filterwarnings turns into an error. Strategies are bounded so that no
input allocates a large mesh or runs a solve: at most 3 refinement
passes, at most 50 analytic eigenvalues, and no adaptive_solve call.
Four invariants are checked on the same small refined meshes: the
loads(dumps(m)) round trip, K and M assembled on one pattern, the
reference LU's solves in its nested-dissection order, and the reference
pairs against a dense eigensolver.
"""

from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import MESH8, marks, pencil, refined, rounds
from paroeig import cli
from paroeig import mesh as pm
from paroeig.adapt import AdaptConfig, AdaptError
from paroeig.assembly import AssemblyError, Coefficients, FemSystem, assemble
from paroeig.cli import CliError
from paroeig.estimator import EstimatorError
from paroeig.linalg import LinAlgError, minres_solve
from paroeig.mesh import MeshError
from paroeig.paro import (ClusterLayout, ParoError, cluster_guesses,
                          relative_change)
from paroeig.verify import (VerifyError, _factor_k, analytic_spectrum,
                            fit_rate, reference_eig)

ERRORS = (AdaptError, AssemblyError, CliError, EstimatorError, LinAlgError,
          MeshError, ParoError, VerifyError)
FUZZ = settings(max_examples=40, deadline=None)

SYSTEM = pencil(np.diag([1.0, 2.0, 3.0]), np.eye(3))

# one value of any kind an argument might be given
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
    st.floats(), st.complex_numbers(), st.text(max_size=3),
    st.sampled_from([np.True_, np.int64(2), np.uint8(1), np.float64(0.5),
                     np.float32(2.0), np.complex128(1.0), 10 ** 20,
                     -10 ** 400, np.nan, np.inf]))


def at_most(limit):
    """scalars whose Python ints are at most limit: a count that large
    would do real work."""
    return scalars.filter(lambda v: not isinstance(v, int) or v <= limit)


values = st.one_of(
    scalars,
    st.lists(scalars, max_size=4),
    st.lists(st.lists(scalars, min_size=1, max_size=3), max_size=3),
    st.lists(st.floats(), max_size=6).map(np.array))


def returns_or_raises_own(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except ERRORS:
        return None


def perturbed(array, data):
    """array as a list with up to three entries replaced by drawn ones."""
    rows = array.tolist()
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = data.draw(scalars)
    return rows


@FUZZ
@given(st.data())
def test_loads_text(data):
    lines = pm.dumps(MESH8).splitlines()
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        j = data.draw(st.integers(0, len(tokens)))
        tokens[j:j + data.draw(st.integers(0, 1))] = [data.draw(st.one_of(
            st.sampled_from(["", "-1", "1e400", "nan", "2.5", "x", "9" * 20,
                             "0 0", "-0"]),
            st.text(max_size=4)))]
        lines[i] = " ".join(tokens)
    if data.draw(st.booleans()):
        del lines[data.draw(st.integers(0, len(lines) - 1))]
    returns_or_raises_own(pm.loads, "\n".join(lines))


@FUZZ
@given(st.text(max_size=40))
def test_loads_any_text(text):
    returns_or_raises_own(pm.loads, text)


@FUZZ
@given(st.data())
def test_mesh_arrays(data):
    args = [MESH8.vertices, MESH8.triangles, MESH8.generation,
            MESH8.ancestor]
    k = data.draw(st.integers(0, 3))
    kind = data.draw(st.sampled_from(["perturb", "replace"]))
    args[k] = (perturbed(np.atleast_2d(args[k]), data) if kind == "perturb"
               else data.draw(values))
    if k >= 2 and kind == "perturb":
        args[k] = args[k][0]
    returns_or_raises_own(pm.Mesh, *args)


@FUZZ
@given(st.one_of(values, st.lists(st.integers(-10, 10), max_size=8)))
def test_refine_marks(marked):
    fine = returns_or_raises_own(pm.refine, MESH8, marked)
    if fine is not None:
        assert fine[0].n_triangles >= MESH8.n_triangles


@FUZZ
@given(st.one_of(at_most(3), st.integers(-5, 3)))
def test_uniform_refine_passes(passes):
    returns_or_raises_own(pm.uniform_refine, MESH8, passes)


@FUZZ
@given(marks, rounds)
def test_dumps_loads_round_trip(marks, rounds):
    m = refined(marks, rounds)
    back = pm.loads(pm.dumps(m))
    for name in ("vertices", "triangles", "generation", "ancestor"):
        assert_array_equal(getattr(back, name), getattr(m, name))


config_keys = st.sampled_from(
    [f.name for f in fields(cli.RunConfig)] + ["nonsense", ""])
config_values = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "2.5", "1e-8", "nan", "inf",
                     "1e400", "True", "x", "constant", "anisotropic",
                     "variable", "identity", ""]),
    st.text(max_size=4))


@FUZZ
@given(st.lists(st.tuples(config_keys, config_values), max_size=6),
       st.text(max_size=10))
def test_parse_config_then_build(pairs, noise):
    text = "\n".join([f"{k}={v}" for k, v in pairs] + [noise])
    config = returns_or_raises_own(cli.parse_config, text)
    if config is not None:
        returns_or_raises_own(cli.build_coefficients, config)
        returns_or_raises_own(cli.build_adapt_config, config)


@FUZZ
@given(st.dictionaries(st.sampled_from(
    [f.name for f in fields(AdaptConfig)]), values, max_size=3))
def test_adapt_config_keywords(keys):
    returns_or_raises_own(AdaptConfig, **keys)


coefficient_data = st.one_of(
    values,
    st.sampled_from([np.eye(2), -np.eye(2), np.ones((8, 2, 2)),
                     np.tile(np.eye(2), (3, 1, 1)), np.ones(8), -np.ones(2),
                     np.full((2, 2), np.nan), np.eye(2) + 1j]),
    st.sampled_from([
        lambda x, y: np.ones_like(x),
        lambda x, y: np.ones((len(x), 2, 2)),
        lambda x, y: np.eye(2) * np.ones((len(x), 1, 1)),
        lambda x, y: x + 1j,
        lambda x, y: "x",
        lambda x, y: 1.0 if x > 0.5 else 0.0,
        lambda x, y: np.full(len(x), np.nan)]))


@FUZZ
@given(coefficient_data, coefficient_data, st.booleans())
def test_coefficients_assemble(diffusion, reaction, constant):
    if constant:
        coeffs = returns_or_raises_own(Coefficients.constant, diffusion,
                                       reaction)
    else:
        coeffs = returns_or_raises_own(Coefficients, diffusion, reaction)
    if coeffs is not None:
        returns_or_raises_own(assemble, MESH8, coeffs)


@FUZZ
@given(st.one_of(values, st.lists(st.integers(-2, 4), max_size=4)))
def test_cluster_layout(d):
    returns_or_raises_own(ClusterLayout, d)


@FUZZ
@given(values)
def test_cluster_guesses(guesses):
    returns_or_raises_own(cluster_guesses, guesses)


@FUZZ
@given(values, values, values)
def test_relative_change(new, old, scale):
    returns_or_raises_own(relative_change, new, old, scale)


@FUZZ
@given(st.one_of(values, st.floats(1e-12, 1.0)), values)
def test_minres_tol_and_max_iter(tol, max_iter):
    s = SYSTEM.K
    returns_or_raises_own(minres_solve, [s], np.ones((1, 3)), tol=tol,
                          max_iter=max_iter)


@FUZZ
@given(st.one_of(at_most(50), st.integers(-2, 50)))
def test_analytic_spectrum_count(count):
    returns_or_raises_own(analytic_spectrum, "unit_square", count)


@FUZZ
@given(values, values)
def test_fit_rate(x, y):
    returns_or_raises_own(fit_rate, x, y)


@FUZZ
@given(st.one_of(scalars, st.integers(-1, 4)),
       st.one_of(scalars, st.integers(-1, 4)))
def test_reference_eig_pairs(n_pairs, seed):
    returns_or_raises_own(reference_eig, SYSTEM, n_pairs, seed=seed)


@FUZZ
@given(marks, rounds, st.integers(0, 2 ** 32))
def test_permuted_factor_solves_k(marks, rounds, seed):
    """The reference LU factors K in a nested-dissection order of the
    dofs and solves in K's own numbering."""
    system = assemble(refined(marks, rounds), Coefficients.identity())
    factor = _factor_k(system)
    assert_array_equal(np.sort(factor.perm), np.arange(system.n_dofs))
    x = np.random.default_rng(seed).standard_normal(system.n_dofs)
    got = factor.solve(system.K @ x)
    assert np.linalg.norm(got - x) <= 1e-9 * np.linalg.norm(x)


@FUZZ
@given(marks, rounds, st.integers(0, 2 ** 32), st.integers(1, 6))
def test_reference_eig_matches_dense(marks, rounds, seed, n_pairs):
    """Lanczos on the permuted LU below n_dofs pairs, LAPACK at n_dofs:
    either way the smallest eigenvalues of the pencil, in M-orthonormal
    rows."""
    system = assemble(refined(marks, rounds), Coefficients.identity())
    n_pairs = min(n_pairs, system.n_dofs)
    ref = reference_eig(system, n_pairs, seed=seed)
    w = scipy.linalg.eigh(system.K.toarray(), system.M.toarray(),
                          eigvals_only=True)
    assert_allclose(ref.eigenvalues, w[:n_pairs], rtol=1e-10)
    assert_allclose(ref.vectors @ (system.M @ ref.vectors.T),
                    np.eye(n_pairs), rtol=0.0, atol=1e-9)


@FUZZ
@given(marks, rounds, st.floats(-1e3, 1e3))
def test_assembled_pencil_has_one_pattern(marks, rounds, sigma):
    """K and M share one pattern, K's exact zeros included, so shifted is
    K - sigma*M entry by entry; the pencil refuses two patterns."""
    system = assemble(refined(marks, rounds), Coefficients.identity())
    k, m = system.K, system.M
    assert np.array_equal(k.indptr, m.indptr)
    assert np.array_equal(k.indices, m.indices)
    assert np.array_equal(system.shifted(sigma).toarray(),
                          k.toarray() - sigma * m.toarray())
    # the same matrix without its last stored entry
    last = sp.csr_matrix((k.data[:-1], k.indices[:-1],
                          np.minimum(k.indptr, k.nnz - 1)), shape=k.shape)
    for pair in ((last, m), (k, last)):
        with pytest.raises(AssemblyError, match="one pattern"):
            FemSystem(*pair, free_dofs=system.free_dofs,
                      vertices=system.vertices)
