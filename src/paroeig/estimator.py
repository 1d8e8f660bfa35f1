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
eta2 over the orbitals. `estimate`, the only entry point, takes the
orbitals as free-dof rows and pads them with boundary zeros once.

Both terms are linear in the vertex values through maps fixed by the
mesh and its assembly.ElementData, which each estimate builds afresh
and drops when it returns: J weighs the six vertex values of an edge's
two triangles, and -c w + div A . grad w at a quadrature point the
three of its triangle (no map without reaction or divergence), each
applied as a weighted gather summed as a CSR product sums a row.
The quadrature is assembly's edge-midpoint rule, exact
for P1 x P1, so the b-Gram is one GEMM of the midpoint values. For
callable diffusion the divergence is a central difference of A at the
quadrature points (stencil 1e-6 * h_T), and an edge's flux takes A from
the quadrature sample of the edge's first triangle at its midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from ._checks import real_array
from .paro import OrbitalBlock


class EstimatorError(ValueError):
    """Invalid indicator data (wrong vector length, bad indicators)."""


@dataclass(frozen=True, eq=False)
class Indicators:
    """1-D finite, non-negative per-element squared indicators; finite sum."""
    per_element: np.ndarray

    def __post_init__(self):
        pe = real_array(self.per_element, "indicators", EstimatorError,
                        finite=True)
        if pe.ndim != 1 or np.any(pe < 0.0):
            raise EstimatorError("indicators must be a non-negative 1-D array")
        object.__setattr__(self, "per_element", pe)
        with np.errstate(over="ignore"):        # a sum beyond range is inf
            if not np.isfinite(self.global_sq):
                raise EstimatorError("global estimator must be finite")

    @property
    def global_sq(self):
        return float(self.per_element.sum())


def _to_vertex_values(mesh, w):
    """Free-dof rows (N, n_free) as vertex values, one column per row
    (nv, N), zero on the boundary."""
    free = ~mesh.is_boundary_vertex
    if w.shape[1] != free.sum():
        raise EstimatorError(f"coefficient vector has length {w.shape[1]}, "
                             f"expected {free.sum()} free dofs")
    values = np.zeros((mesh.n_vertices, len(w)))
    values[free] = w.T
    return values


def _gather(coef, cols, values):
    """Row i is sum_k coef[i, k] * values[cols[i, k]], summed over k in
    column order, as a CSR matrix with these rows would sum it."""
    out = coef[:, 0, None] * values.take(cols[:, 0], 0)
    for k in range(1, coef.shape[1]):
        out += coef[:, k, None] * values.take(cols[:, k], 0)
    return out


def _operators(data):
    """The maps J and L of data's mesh as (coef, cols) pairs for _gather:
    (ne, 6) arrays for J and (nt * nq, 3) ones for L, or None."""
    mesh = data.mesh
    sides = mesh.edge_tris.clip(0)      # (ne, 2); boundary rows zeroed below
    # take, not fancy indexing: several times faster on these shapes
    if data.diffusion is None:
        a_sides = [data.coeffs._values("diffusion", mesh, t) for t in sides.T]
    else:
        local = np.argmax(mesh.tri_edges.take(sides[:, 0], 0)
                          == np.arange(len(sides))[:, None], axis=1)
        q_of_edge = np.argsort(assembly._QUAD_EDGE)[local]
        a_sides = [data.diffusion[sides[:, 0], q_of_edge]] * 2
    # +-n . (A grad w) = (+-A^T n) . sum_i w_i grad phi_i on either side
    coef = np.empty((len(sides), 2, 3))
    for s, (t, a, n) in enumerate(zip(sides.T, a_sides, (
            mesh.edge_normals, -mesh.edge_normals))):
        np.einsum("eb,eib->ei", np.einsum("ea,eab->eb", n, a),
                  data.grads.take(t, 0), out=coef[:, s])
    coef[mesh.edge_tris[:, 1] < 0] = 0.0
    tri = mesh.triangles
    jump = coef.reshape(-1, 6), tri.take(sides, 0).reshape(-1, 6)
    linear, c_q = None, data.reaction
    if c_q is None:                     # array data: (nt, 1)
        c_q = data.coeffs._values("reaction", mesh,
                                  np.arange(mesh.n_triangles))[:, None]
    if c_q.any() or data.div_rows is not None:
        bary, _ = assembly._QUAD_RULE
        lin = -c_q[..., None] * bary
        if data.div_rows is not None:
            lin += np.einsum("tqd,tid->tqi", data.div_rows, data.grads)
        linear = lin.reshape(-1, 3), np.repeat(tri, len(bary), axis=0)
    return jump, linear


def _residuals(data, values, ritz_values):
    """The arrays estimate squares and sums for the P1 functions with
    vertex values (nv, N), one column per orbital: the element residual
    at the quadrature points (nt, nq, N) and the flux jumps (ne, N),
    exactly 0 on boundary edges."""
    mesh, (jump, linear) = data.mesh, _operators(data)
    mid = values.take(mesh.edges[:, 0], 0)
    mid += values.take(mesh.edges[:, 1], 0)
    mid *= 0.5                              # the quadrature values (ne, N)
    at_q = mesh.tri_edges.take(assembly._QUAD_EDGE, 1)       # (nt, nq)
    # the b-Gram, exact: a midpoint weighs w_q |T| over its triangles
    mid_w = np.bincount(at_q.ravel(), np.outer(
        data.areas, assembly._QUAD_RULE[1]).ravel(), minlength=len(mid))
    b_gram = mid.T @ (mid * mid_w[:, None])
    # expand against b-normalized members: identical to the raw block
    # sum when the block is b-orthonormal (the normal case), and keeps
    # the residual 1-homogeneous in each orbital's scale
    norms_sq = np.diag(b_gram).clip(0.0)
    coef = b_gram * (ritz_values / np.where(norms_sq > 0.0, norms_sq, 1.0))
    r = (mid @ coef.T).take(at_q, 0)                    # (nt, nq, N)
    if linear is not None:
        r += _gather(*linear, values).reshape(r.shape)
    return r, _gather(*jump, values)


def estimate(mesh, coeffs, block, data=None):
    """All local indicators eta2(block, T) and their global sum.

    block: an OrbitalBlock (EstimatorError otherwise), whose vectors
    hold one row of free-dof values per orbital.
    data: the mesh's assembly.ElementData; built here when None.
    """
    if not isinstance(block, OrbitalBlock):
        raise EstimatorError(f"block must be an OrbitalBlock, got "
                             f"{type(block).__name__}")
    data = assembly._element_data(mesh, coeffs, data)
    r, jumps = _residuals(data, _to_vertex_values(mesh, block.vectors),
                          block.ritz_values)
    # h_T^2 |T| sum_q w_q R^2 + sum_{e in dT} h_e ||J||^2 (= h_e^2 J^2),
    # summed over orbitals; the GEMV with ones sums the three edges
    res_sq = np.einsum("tqn,tqn->tq", r, r) @ assembly._QUAD_RULE[1]
    edge_sq = np.einsum("en,en->e", jumps, jumps) * mesh.edge_lengths ** 2
    per_element = (data.h_t ** 2 * data.areas * res_sq
                   + edge_sq.take(mesh.tri_edges) @ np.ones(3))
    return Indicators(per_element)
