"""Residual-based a posteriori error indicators for an orbital block.

For each orbital w with Ritz value lam, the element residual is the full
block sum

    R_T(w) = sum_l b(w, u_l) lam_l u_l + div(A grad w) - c w,

NOT the collapsed form lam w: with exact b-orthonormality the two agree
when w is a block member, but the full sum is what the indicator is
defined to be, and at roundoff level they differ. The edge term is the
jump of the conormal flux A grad w . n across interior edges. The local
indicator squares and scales:

    eta2(w, T) = h_T^2 ||R_T(w)||_{0,T}^2 + sum_{e in dT} h_e ||J_e(w)||_{0,e}^2,

boundary edges contributing nothing, and the block indicator on T sums
eta2 over the orbitals. `estimate` is the only entry point: one pass
over the block computes the vertex values and the orbital gradients once
and shares them between both terms. The P1 gradients, areas, h_T and
every coefficient sample come from the mesh's assembly.ElementData, so
an estimate with that data calls no coefficient callable.

P1 specifics: gradients are constant per element, so for
piecewise-constant diffusion the divergence term vanishes and jumps are
constant along each edge (integrated exactly). The residual is sampled
at assembly's edge-midpoint quadrature rule. For callable diffusion the
divergence term uses a central finite difference of A at the quadrature
points (stencil 1e-6 * h_T), and the edge flux takes A at the edge
midpoint from the quadrature sample of the edge's first triangle at
that midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly


class EstimatorError(ValueError):
    """Invalid indicator data (wrong vector length, bad indicators)."""


@dataclass(frozen=True)
class Indicators:
    """Per-element squared indicators and their validated global sum."""
    per_element: np.ndarray
    global_sq: float

    def __post_init__(self):
        pe = np.asarray(self.per_element, dtype=np.float64)
        if not np.all(np.isfinite(pe)) or not np.isfinite(self.global_sq):
            raise EstimatorError("local indicators must be finite")
        if np.any(pe < 0.0):
            raise EstimatorError("negative local indicator")
        total = float(pe.sum())
        if abs(total - self.global_sq) > 1e-12 * max(total, 1e-300):
            raise EstimatorError("global estimator does not match the "
                                 "element sum")
        object.__setattr__(self, "per_element", pe)


def _to_vertex_values(mesh, w):
    """Accept free-dof or full vertex coefficient vectors (rows)."""
    w = np.asarray(w, dtype=np.float64)
    nv = mesh.n_vertices
    n_free = int((~mesh.is_boundary_vertex).sum())
    if w.shape[-1] == nv:
        return w if w.ndim == 2 else w[None, :]
    if w.shape[-1] == n_free:
        full = np.zeros(w.shape[:-1] + (nv,))
        full[..., ~mesh.is_boundary_vertex] = w
        return full if full.ndim == 2 else full[None, :]
    raise EstimatorError(f"coefficient vector has length {w.shape[-1]}, "
                         f"expected {n_free} (free) or {nv} (vertex)")


def _element_residuals(mesh, data, lam, values, tri_vals, grads):
    """Residual of every orbital at the quadrature points, (N, nt, nq)."""
    bary, _ = assembly._QUAD_RULE
    # b(u_k, u_l) over the whole mesh, via element mass matrices; the
    # (nt, 3, 3) and (N, nt, 3) temporaries here and below are not kept
    b_gram = np.einsum("kti,tij,ltj->kl", tri_vals,
                       assembly._EXACT_MASS[None, :, :]
                       * data.areas[:, None, None], tri_vals)
    lam = np.asarray(lam, dtype=np.float64)
    # expand against b-normalized members: identical to the raw block
    # sum when the block is b-orthonormal (the normal case), and keeps
    # the residual 1-homogeneous in each orbital's scale
    norms = np.sqrt(np.clip(np.diag(b_gram), 0.0, None))
    norms = np.where(norms > 0.0, norms, 1.0)
    coef = (b_gram / norms[None, :]) * lam
    summed = coef @ (values / norms[:, None])           # (N, nv)
    r = np.einsum("nti,qi->ntq", summed[:, mesh.triangles], bary)

    c_q = data.reaction
    if c_q.ndim == 1:                                   # per element
        c_q = np.broadcast_to(c_q[:, None], r.shape[1:])
    w_q = np.einsum("nti,qi->ntq", tri_vals, bary)
    r = r - c_q[None, :, :] * w_q

    if data.div_rows is not None:
        r = r + np.einsum("tqd,ntd->ntq", data.div_rows, grads)
    return r


def _flux_jumps(mesh, data, grads):
    """Conormal flux jump of every orbital across every edge, (N, ne),
    exactly 0 on boundary edges."""
    interior = mesh.edge_tris[:, 1] >= 0
    t_plus = mesh.edge_tris[:, 0]
    t_minus = np.where(interior, mesh.edge_tris[:, 1], t_plus)
    if data.diffusion.ndim == 4:
        # one midpoint sample serves both sides of an edge: the
        # quadrature sample of t_plus at that edge
        local = np.argmax(mesh.tri_edges[t_plus]
                          == np.arange(len(t_plus))[:, None], axis=1)
        q_of_edge = np.argsort(assembly._QUAD_EDGE)[local]
        a_plus = a_minus = data.diffusion[t_plus, q_of_edge]
    else:
        a_plus = data.diffusion[t_plus]
        a_minus = data.diffusion[t_minus]
    # in place, one (N, ne, 2) temporary fewer than flux_plus - flux_minus
    flux = np.einsum("eab,neb->nea", a_plus, grads[:, t_plus])
    flux -= np.einsum("eab,neb->nea", a_minus, grads[:, t_minus])
    jumps = np.einsum("nea,ea->ne", flux, mesh.edge_normals)
    jumps[:, ~interior] = 0.0
    return jumps


def _residuals(mesh, coeffs, block, data=None):
    """One pass over the block: the data both terms share is computed
    once.

    Returns (r, jumps, areas, h_t): the element residual samples
    (N, nt, nq), the flux jumps (N, ne), and the element areas and
    diameters that scale them.
    """
    data = assembly._element_data(mesh, coeffs, data)
    values = _to_vertex_values(mesh, block.vectors)     # (N, nv)
    tri_vals = values[:, mesh.triangles]                # (N, nt, 3)
    grads = np.einsum("nti,tid->ntd", tri_vals, data.grads)  # (N, nt, 2)
    r = _element_residuals(mesh, data, block.ritz_values, values,
                           tri_vals, grads)
    jumps = _flux_jumps(mesh, data, grads)
    return r, jumps, data.areas, data.h_t


def estimate(mesh, coeffs, block, data=None):
    """All local indicators eta2(block, T) and their global sum.

    data: the mesh's assembly.ElementData; built here when None.
    """
    r, jumps, areas, h_t = _residuals(mesh, coeffs, block, data)
    _, weights = assembly._QUAD_RULE
    # h_T^2 * |T| * sum_q w_q R^2, summed over orbitals
    res_sq = np.einsum("ntq,q->nt", r ** 2, weights) * areas[None, :]
    per_element = (h_t ** 2)[None, :] * res_sq
    h_e = mesh.edge_lengths
    edge_terms = (h_e ** 2)[None, :] * jumps ** 2       # h_e * ||J||^2
    per_element = per_element + edge_terms[:, mesh.tri_edges].sum(axis=2)
    per_element = per_element.sum(axis=0)
    return Indicators(per_element=per_element,
                      global_sq=float(per_element.sum()))
