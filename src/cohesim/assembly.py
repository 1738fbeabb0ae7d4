"""Sparse P1 finite-element operators and time-dependent load vectors.

All bilinear forms carry the physical factor-1/2 convention of the energies:
``u' A_mu u = 2 E(u)`` (elastic), ``v' M v = 2 K(v)`` (kinetic) and
``v' A_eta v = D(v)`` (viscous dissipation rate, no 1/2).

Assembly is vectorized over elements; the resulting operators are immutable.
Only the unit forms ``M_unit`` and ``A_unit`` are assembled: ``M``, ``A_mu``
and ``A_eta`` are nodal scalings of them that a run reads through products,
never as matrices (:class:`DiscreteOperators`).  Dirichlet conditions are
homogeneous and handled by elimination, in :class:`InterfaceSchur` only (no
penalty terms).  The interface enters as the pairs ``(plus, minus)`` of the
mesh: jumps and the scatters ``B' lam`` are read and written by index, and
the jump operator ``B`` is notation, never assembled.  So is the load
operator ``P``: a load scatters its quadrature rule by index, one rule point
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import csr_matvec

from .mesh import _BLOCK, InterfaceMesh, _triangle_areas, _vertex_blocks

__all__ = [
    "Materials",
    "DiscreteOperators",
    "InterfaceSchur",
    "LoadError",
    "LoadModel",
    "assemble",
    "load_vector",
]

# degree-2 exact triangle rule (edge midpoints)
_TRI_QP = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
_TRI_QW = np.array([1.0, 1.0, 1.0]) / 3.0
_TRI_LAMBDA = np.column_stack([1.0 - _TRI_QP[:, 0] - _TRI_QP[:, 1], _TRI_QP])  # shape values
# 2-point Gauss on [0, 1]
_EDGE_QP = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_EDGE_QW = np.array([0.5, 0.5])
_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0    # consistent element mass / area
# SuperLU in the given order without pivoting; the smallest supernodes keep
# the factors' memory low
_NO_PIVOT = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0, "relax": 1, "panel_size": 1}


@dataclass(frozen=True)
class Materials:
    """Constant-per-body density, shear modulus and Kelvin-Voigt viscosity."""

    rho_plus: float
    rho_minus: float
    mu_plus: float
    mu_minus: float
    eta_plus: float
    eta_minus: float

    def __post_init__(self):
        for name in ("rho_plus", "rho_minus", "mu_plus", "mu_minus", "eta_plus", "eta_minus"):
            if not (0.0 < getattr(self, name) < np.inf):
                raise ValueError(f"material parameter {name} must be positive and finite")

    @classmethod
    def constant(cls, rho: float, mu: float, eta: float) -> "Materials":
        return cls(rho, rho, mu, mu, eta, eta)

    @property
    def mu_min(self) -> float:
        return min(self.mu_plus, self.mu_minus)


def _stiffness(mesh: InterfaceMesh, area: np.ndarray) -> np.ndarray:
    """The element matrices ``area_T grad phi_i . grad phi_j`` (``(M, 3, 3)``)
    of the triangles of area ``area`` (positive: the mesh holds them
    counterclockwise and rejects degenerate ones), a block at a time.  An
    entry sums its two products from ``+0.0``, so it is bit for bit
    ``np.einsum("tik,tjk->tij", grads, grads) * area_T``."""
    local = np.empty((len(area), 3, 3))
    for b, x, y in _vertex_blocks(mesh.nodes, mesh.triangles):
        # the gradients of the barycentric functions: the opposite edges, turned
        two_area = 2.0 * area[b]
        gx = [-(y[(i + 2) % 3] - y[(i + 1) % 3]) / two_area for i in range(3)]
        gy = [(x[(i + 2) % 3] - x[(i + 1) % 3]) / two_area for i in range(3)]
        for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
            k = gx[i] * gx[j]
            k += gy[i] * gy[j]
            k += 0.0      # -0.0 + -0.0 would stay -0.0
            k *= area[b]
            local[b, i, j] = local[b, j, i] = k
    return local


@dataclass
class DiscreteOperators:
    """Assembled operators of one (mesh, materials) pair.

    M_unit       unit-density consistent mass (SPD), for L2 norms and loads
    A_unit       unit-coefficient stiffness (symmetric PSD, kernel = constants
                 per body), on the sparsity pattern of ``M_unit``
    pairs        ``(plus, minus)``: the nodes of each interface pair, where ``B``
                 is ``+1`` and ``-1``; the time loop reads jumps, ``B' r`` and
                 the traction audit's bulk residual there, the reads through
                 ``pair_index``, the two stacked as one ``(2, n_pairs)`` index
    weights      interface quadrature weights w_j
    free_dofs    non-Dirichlet node indices
    rho, mu, eta nodal density, shear modulus and Kelvin-Voigt viscosity

    The two bodies share no node (the crack duplicates the interface nodes),
    so every triangle at a node carries that node's material values and each
    material operator is a unit form scaled row by row: the rho-weighted mass
    ``M = diag(rho) M_unit`` and the stiffnesses ``A_mu = diag(mu) A_unit``
    and ``A_eta = diag(eta) A_unit``.  Only the unit forms are stored: a time
    loop takes the :meth:`products` of each state once and scales them by
    node, and :meth:`combination` forms ``H0`` on their shared pattern.
    """

    mesh: InterfaceMesh
    M_unit: sp.csr_matrix
    A_unit: sp.csr_matrix
    pairs: tuple
    weights: np.ndarray
    free_dofs: np.ndarray
    rho: np.ndarray
    mu: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        M, A = self.M_unit, self.A_unit
        if not (np.array_equal(M.indptr, A.indptr) and np.array_equal(M.indices, A.indices)):
            raise ValueError("M_unit and A_unit must share one sparsity pattern")
        self.n_nodes = M.shape[0]
        # the pairs as one (2, n_pairs) index, so that a read at them is one gather
        self.pair_index = np.stack(self.pairs)

    def combination(self, mass: np.ndarray, stiffness: np.ndarray) -> sp.csr_matrix:
        """``diag(mass) M_unit + diag(stiffness) A_unit`` for nodal coefficients."""
        M, A = self.M_unit, self.A_unit
        counts = np.diff(M.indptr)
        data = np.repeat(mass, counts) * M.data + np.repeat(stiffness, counts) * A.data
        return sp.csr_matrix((data, M.indices, M.indptr), shape=M.shape)

    def _vector(self, u) -> np.ndarray:
        """``u`` as a contiguous float vector with one entry per node, which
        the CSR kernel needs: it checks no bounds."""
        u = np.ascontiguousarray(u, dtype=float)
        n = self.n_nodes
        if u.shape != (n,):
            raise ValueError(f"vector has shape {u.shape}, expected ({n},)")
        return u

    def _matvec(self, data: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The product of the form with entries ``data`` on the shared pattern
        and the checked vector ``u``."""
        n, M = self.n_nodes, self.M_unit
        out = np.zeros(n)
        csr_matvec(n, n, M.indptr, M.indices, data, u, out)
        return out

    def products(self, u: np.ndarray) -> tuple:
        """``(M_unit u, A_unit u)``, the only full-size products a state needs,
        bit for bit ``(M_unit @ u, A_unit @ u)``.

        Each calls scipy's CSR kernel ``csr_matvec``, in which ``@`` ends,
        directly on the shared pattern: on a small mesh scipy's Python
        dispatch around it costs more than the products.  ``u`` must have one
        entry per node."""
        u = self._vector(u)
        return self._matvec(self.M_unit.data, u), self._matvec(self.A_unit.data, u)

    def jumps(self, u: np.ndarray) -> np.ndarray:
        """``B @ u`` bit for bit (:func:`~cohesim.mesh.jumps`), from one
        gather at :attr:`pair_index`."""
        g = u[self.pair_index]
        return (0.0 + g[0]) - g[1]

    def l2_norm(self, u: np.ndarray) -> float:
        """``sqrt(u' M_unit u)``, with ``M_unit u`` bit for bit ``M_unit @ u``
        from one call of the CSR kernel, as in :meth:`products`."""
        u = self._vector(u)
        return float(np.sqrt(max(u @ self._matvec(self.M_unit.data, u), 0.0)))


def assemble(mesh: InterfaceMesh, materials: Materials) -> DiscreteOperators:
    """Build the unit forms on one COO index pair, and the nodal materials.

    The entry ``(t, i, j)`` of the element matrices goes to row
    ``triangles[t, i]`` and column ``triangles[t, j]``, and scipy's COO to CSR
    conversion sums the entries of each position.  The forms share one
    pattern, so ``A_unit`` keeps the index arrays of ``M_unit``."""
    n = mesh.n_nodes
    area = _triangle_areas(mesh.nodes, mesh.triangles)
    tris = mesh.triangles.astype(np.int32)   # the index type scipy converts to anyway
    index = (np.repeat(tris, 3, axis=1).ravel(), np.tile(tris, (1, 3)).ravel())
    del tris

    def form(local):
        return sp.coo_matrix((local.ravel(), index), shape=(n, n)).tocsr()

    M_unit = form(_MASS * area[:, None, None])
    A_unit = sp.csr_matrix((form(_stiffness(mesh, area)).data, M_unit.indices, M_unit.indptr),
                           shape=(n, n))
    plus = mesh.node_side() > 0
    nodal = {name: np.where(plus, float(getattr(materials, name + "_plus")),
                            float(getattr(materials, name + "_minus")))
             for name in ("rho", "mu", "eta")}
    return DiscreteOperators(
        mesh=mesh,
        M_unit=M_unit,
        A_unit=A_unit,
        pairs=tuple(mesh.interface_pairs.T),
        weights=mesh.interface_weights.copy(),
        free_dofs=mesh.free_nodes,
        **nodal,
    )


def _minimum_degree(nodes: np.ndarray, row, col, data, n: int) -> np.ndarray:
    """``nodes`` in SuperLU's symmetric minimum-degree order (``MMD_AT_PLUS_A``)
    of the block on them of the ``n x n`` matrix with entries ``(row, col, data)``.

    An ILU that drops every entry gives the order of ``splu`` at a fraction
    of its time and memory; its ``perm_c`` maps an index to its position."""
    if nodes.size == 0:
        return nodes
    rank = np.full(n, -1, dtype=np.int32)
    rank[nodes] = np.arange(nodes.size, dtype=np.int32)
    r, c = rank[row], rank[col]
    block = (r >= 0) & (c >= 0)
    perm_c = spla.spilu(sp.csc_matrix((data[block], (r[block], c[block])),
                                      shape=(nodes.size, nodes.size)),
                        permc_spec="MMD_AT_PLUS_A", drop_tol=np.inf, fill_factor=1.0,
                        diag_pivot_thresh=0.0).perm_c
    order = np.empty_like(perm_c)     # the inverse of perm_c, without a sort
    order[perm_c] = np.arange(nodes.size)
    return nodes[order]


class InterfaceSchur:
    """Interface Schur complement ``S = B K^-1 B'`` of an SPD operator ``K``
    on the nodes ``free``, from one factorization ``K = L D L'`` with the
    interface nodes last; the only code that eliminates the Dirichlet nodes.

    ``K`` acts on all nodes and ``B`` is given by the ``pairs``
    ``(plus, minus)`` it reads, which are all in ``free``.  The other
    rows and columns of ``K`` become identity rows, so a right-hand side that
    vanishes there gives a solution that vanishes there exactly (``+0.0``).
    The order is: Dirichlet nodes, interior nodes by SuperLU's symmetric
    minimum-degree order of their block (``MMD_AT_PLUS_A``, Liu, ACM TOMS 11,
    1985), then the ``m`` nodes that ``B`` reads, in index order (its columns
    there are ``B_G``, applied as in FETI as a signed Boolean map of the pairs'
    positions in that block); the factorization does not pivot.  Only
    ``U = D L'`` is kept, refactorized as a triangle so that one ``solve`` sweeps it alone:
    ``U^-1`` is the backward sweep and ``L^-1 = D U'^-1`` the forward one.
    ``L^-1`` maps a vector on the trailing rows, such as ``B' lam``, through
    the trailing block ``L_S`` alone, so with the dense ``Z = L_S^-1 B_G'``
    (``m x n_pairs``) the interface operator is ``S = Z' D_S^-1 Z`` (the
    Schur-complement option of sparse direct solvers: MUMPS ICNTL(19),
    Amestoy et al., SIMAX 23, 2001) and ``K^-1 (B' lam - b)`` is one
    :meth:`forward` and one :meth:`backward` sweep (its factor is built on
    the first sweep, so ``S`` alone needs none).  ``Z`` and ``S`` are
    solved with the trailing block ``U_S`` of ``U``, also by SuperLU, which
    keeps dense LAPACK and BLAS kernels out of a small run's memory.
    Minimizing ``u' K u`` subject to ``B u = j`` leaves ``j' S^-1 j``, the
    interface problem that FETI condenses onto (Farhat & Roux, IJNME 32,
    1991).

    For ``K = H0`` it is the time step's interface operator: the step solver
    runs Newton on the interface multipliers with ``S``, gets the linear part
    of the jumps from the forward sweep and the displacement from the
    backward one, and decides convexity from ``lambda_max`` (see
    :mod:`cohesim.step`).  The trace constant uses it for ``K = A``.
    """

    def __init__(self, K: sp.spmatrix, pairs, free):
        n = K.shape[0]
        is_free = np.zeros(n, dtype=bool)
        is_free[free] = True
        plus, minus = pairs
        G = np.sort(np.concatenate([plus, minus]))
        self._G = slice(n - G.size, n)
        K = K.tocoo()     # entrywise, so the free block keeps its explicit zeros
        keep = is_free[K.row] & is_free[K.col]
        row, col, data = K.row[keep], K.col[keep], K.data[keep]
        del K, keep
        self._dirichlet = d = np.flatnonzero(~is_free)     # the rows constrained zeroes
        is_free[G] = False      # now the interior nodes
        inner = _minimum_degree(np.flatnonzero(is_free), row, col, data, n)
        self._order = np.concatenate([d, inner, G])
        pos = np.empty(n, dtype=np.int32)
        pos[self._order] = np.arange(n, dtype=np.int32)
        at = np.arange(d.size, dtype=np.int32)     # the Dirichlet diagonal
        K = sp.csc_matrix((np.r_[data, np.ones(d.size)],
                           (np.r_[pos[row], at], np.r_[pos[col], at])), shape=(n, n))
        del row, col, data
        lu = spla.splu(K, options={"SymmetricMode": True}, **_NO_PIVOT)
        del K
        identity = np.arange(n)
        if not (np.array_equal(lu.perm_r, identity) and np.array_equal(lu.perm_c, identity)):
            raise RuntimeError("the interface-last factorization pivoted")
        self._U = lu.U
        del lu     # before the next factor, so that one factor is held at a time
        self._D = self._U.diagonal()
        D_S = self._D[self._G]
        U_S = spla.splu(self._U[self._G, self._G], **_NO_PIVOT)
        # the positions of the pairs' nodes in the trailing block
        pos_plus, pos_minus = np.searchsorted(G, plus), np.searchsorted(G, minus)
        B_Gt = np.zeros((G.size, plus.size))
        B_Gt[pos_plus, np.arange(plus.size)] = 1.0
        B_Gt[pos_minus, np.arange(plus.size)] = -1.0
        self._Z = D_S[:, None] * U_S.solve(B_Gt, trans="T")
        X = U_S.solve(self._Z)      # Z' D_S^-1 = B_G U_S^-1
        S = (0.0 + X[pos_plus]) - X[pos_minus]
        self.S = 0.5 * (S + S.T)

    @cached_property
    def _sweep(self):
        """The factor of ``U`` that the sweeps solve; it replaces ``U``."""
        return spla.splu(self.__dict__.pop("_U"), **_NO_PIVOT)

    def forward(self, b: np.ndarray) -> tuple:
        """The forward sweep ``y = L^-1 b`` (in factor order) of a nodal ``b``
        that vanishes on the Dirichlet nodes, and the jumps ``-B K^-1 b`` of
        ``backward(0, y)``."""
        y = self._D * self._sweep.solve(b[self._order], trans="T")
        return y, -(self._Z.T @ (y[self._G] / self._D[self._G]))

    def backward(self, lam: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``K^-1 (B' lam - b)`` by one backward sweep, from ``y`` of
        :meth:`forward` of ``b``; zero (``+0.0``) on the Dirichlet nodes."""
        e = 0.0 - y       # not -y, which turns a Dirichlet entry +0.0 into -0.0
        e[self._G] += self._Z @ lam
        u = np.empty(y.size)
        u[self._order] = self._sweep.solve(e)
        return u

    def constrained(self, v: np.ndarray) -> np.ndarray:
        """Zero (``+0.0``) the Dirichlet rows of the nodal vector ``v`` in
        place and return ``v`` itself, no copy; the other rows are untouched."""
        v[self._dirichlet] = 0.0
        return v

    def lambda_max(self, weights: np.ndarray) -> float:
        """Largest eigenvalue of ``W^1/2 S W^1/2`` with ``W = diag(weights)``."""
        sqrt_w = np.sqrt(weights)
        return float(np.linalg.eigvalsh(sqrt_w[:, None] * self.S * sqrt_w[None, :])[-1])


def _bulk_points(mesh: InterfaceMesh):
    """The bulk rule (3 points per triangle) one rule point at a time: the
    point on every triangle, its weights, the triangles' nodes and the 3
    shape values there."""
    area = _triangle_areas(mesh.nodes, mesh.triangles)
    for l, wq in zip(_TRI_LAMBDA, _TRI_QW):
        # the point sum_k l_k p_k, from +0.0: bit for bit np.einsum's
        xq = np.zeros((area.size, 2))
        for k in range(3):
            xq += mesh.nodes[mesh.triangles[:, k]] * l[k]
        yield xq, wq * area, mesh.triangles, l


def _surface_points(mesh: InterfaceMesh):
    """The surface rule (2-point Gauss per Neumann edge) one Gauss point and
    edge end at a time: the point on every edge, its weights, that end's
    nodes and its shape value."""
    e = mesh.neumann_edges
    a, b = mesh.nodes[e[:, 0]], mesh.nodes[e[:, 1]]
    lengths = np.linalg.norm(b - a, axis=1)
    for s, wq in zip(_EDGE_QP, _EDGE_QW):
        xq = (1.0 - s) * a + s * b
        for end, phi in enumerate((1.0 - s, s)):
            yield xq, wq * lengths, e[:, end], phi


def _scatter(V: np.ndarray, c, nodes, vals, fv) -> None:
    """Add ``vals * (c * fv)`` of one rule point to ``V`` by node index
    (``fv`` broadcast to the points), so each node sums its entries, zeros
    included, in the rule's order; a block of points at a time."""
    cf = c * np.broadcast_to(np.asarray(fv, dtype=float), c.shape)
    for s in range(0, cf.size, _BLOCK):
        np.add.at(V, nodes[s:s + _BLOCK].ravel(), (vals * cf[s:s + _BLOCK, None]).ravel())


def _load(n_nodes: int, points, fn):
    """The function of ``t`` that gives the consistent load ``P (c * fn)`` of
    the rule whose ``points`` ``(xq, c, nodes, vals)`` come one rule point at a
    time; ``P`` is never assembled.

    When ``fn`` carries the ``terms`` ``(g_i, F_i)`` of a sum of products
    (see :func:`~cohesim.expressions.compile_expression`), each ``F_i`` is
    scattered here into ``V_i``, nothing of the rule is kept, and a sample is
    ``sum_i g_i(t) V_i``.  Any other ``fn`` keeps the points and scatters
    them at each sample."""
    terms = getattr(fn, "terms", None)
    if terms is None:
        points = list(points)

        def sample(t):
            F = np.zeros(n_nodes)
            for xq, c, nodes, vals in points:
                _scatter(F, c, nodes, vals, fn(xq[:, 0], xq[:, 1], t))
            return F
        return sample
    Vs = [np.zeros(n_nodes) for _ in terms]
    for xq, c, nodes, vals in points:
        for V, (_, F) in zip(Vs, terms):
            _scatter(V, c, nodes, vals, F(x=xq[:, 0], y=xq[:, 1]))
        del xq, c     # before the next point is formed
    (g0, V0), *rest = [(g, V) for (g, _), V in zip(terms, Vs)]

    def sample(t):
        F = float(g0(t=t)) * V0
        for g, V in rest:
            F += float(g(t=t)) * V
        return F
    return sample


class LoadError(FloatingPointError):
    """A load sample that is not finite; ``args`` are the load's name
    (``bulk`` or ``surface``) and the sample's time."""

    def __str__(self):
        return "the {} load is not finite at t = {!r}".format(*self.args)


class LoadModel:
    """External load on ``[0, T]``: its functions of ``t``, evaluated at the
    time asked.

    Each given load is integrated by its rule, nothing for a ``None`` one
    (bulk: 3-point rule per triangle, surface: 2-point Gauss per Neumann
    edge; both exact against the P1 test space for affine data), scattered
    one rule point at a time by :func:`_load`.  A compiled expression with
    separable ``terms`` ``g_i(t) * F_i(x, y)`` is scattered once, into one
    ``V_i`` per term, equal to assembly triangle by triangle up to rounding.
    Any other load (a Python callable, or an expression such as
    ``sin(x * t)``) keeps the rule points, whose node indices are
    ``mesh.triangles`` itself or views of ``mesh.neumann_edges``, and is
    scattered at each sample, bit-identical to assembly triangle by triangle.

    :meth:`at` evaluates the loads at ``t``, clamped into ``[0, T]``, and
    returns a fresh vector: the sum from the first load plus ``0.0``, the
    same bits as a sum from zeros; one that is not finite raises
    :class:`LoadError`.  ``loads`` maps each name to its function of ``t``.
    """

    def __init__(self, T: float, n_nodes: int, loads: dict):
        self.t_final = float(T)
        self.n_nodes = n_nodes
        self.loads = loads     # name -> function t -> nodal load, summed in order

    @classmethod
    def from_functions(cls, mesh: InterfaceMesh, T: float, bulk=None,
                       surface=None) -> "LoadModel":
        """Loads ``bulk(x, y, t)`` and ``surface(x, y, t)`` on ``[0, T]``.

        The load at ``t = 0`` is formed here, so a malformed load fails at once.
        """
        loads = {}
        if bulk is not None:
            loads["bulk"] = _load(mesh.n_nodes, _bulk_points(mesh), bulk)
        if surface is not None:
            loads["surface"] = _load(mesh.n_nodes, _surface_points(mesh), surface)
        model = cls(T, mesh.n_nodes, loads)
        model.at(0.0)
        return model

    @property
    def surface_is_zero(self) -> bool:
        return "surface" not in self.loads

    def at(self, t: float) -> np.ndarray:
        T = self.t_final
        eps = 1e-12 * max(1.0, abs(T))
        if not -eps <= t <= T + eps:
            raise ValueError(f"load requested at t={t} outside [0.0, {T}]")
        t = min(max(0.0, t), T)
        F = None
        with np.errstate(all="ignore"):
            for name, load in self.loads.items():
                if F is None:
                    F = load(t) + 0.0   # its sum from np.zeros: -0.0 becomes +0.0
                else:
                    F += load(t)
                if not np.isfinite(F).all():
                    raise LoadError(name, t)
        return np.zeros(self.n_nodes) if F is None else F


def load_vector(loads: LoadModel, t: float) -> np.ndarray:
    """Consistent nodal load at time ``t``: ``loads.at(t)``."""
    return loads.at(t)
