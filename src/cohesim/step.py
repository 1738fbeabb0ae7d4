"""One implicit time step: minimize the incremental functional and update the
interface history variable.

Each step solves

    min_u  1/(2 tau^2) |u - 2 u_prev + u_prev2|_M^2
         + 1/(2 tau)   (u - u_prev)' A_eta (u - u_prev)
         + 1/2 u' A_mu u - f_k . u
         + sum_j w_j psi([u]_j, xi_prev_j)

over the free DOFs, then sets ``xi_new = max(xi_prev, |[u_new]|)`` nodewise.
This max-rule makes the discrete complementarity conditions hold exactly:
``|[u]_j| <= xi_j``, ``(xi_j - xi_prev_j)(|[u]_j| - xi_j) = 0`` and
``|xi_j - xi_prev_j| <= |[u]_j - [u_prev]_j|``.

The solver is a damped Newton method on the C1 gradient (the history floor
``xi_prev > 0`` keeps the cohesive term differentiable): the SPD leading
block ``H0 = M/tau^2 + A_eta/tau + A_mu`` is factorized once, together with
its interface Schur complement ``S = B H0^-1 B'``, and the interface
curvature ``D`` is folded in by the Woodbury identity over all pairs,
``(H0 + B' D B)^-1 g = y - X D (I + S D)^-1 B y`` with ``y = H0^-1 g`` and
``X = H0^-1 B'``.  ``I + S D`` is nonsingular for every ``D >= 0``, so pairs
with zero curvature need no special case and no fallback.  The interface
curvature uses the secant stiffness ``c_xi`` on the elastic branch and drops
the (nonpositive) softening curvature, so every Newton matrix is SPD and
each direction is a descent direction; an Armijo backtracking line search
guarantees monotone energy decrease.

The step is well posed when the functional is strictly convex, which
:func:`convexity_guard` decides exactly from the Schur complement of
``A_eta/tau + A_mu``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import DiscreteOperators, InterfaceSchur
from .law import CohesiveLaw

__all__ = [
    "StepSolverError",
    "ConvexityError",
    "StepWorkspace",
    "StepProblem",
    "StepResult",
    "incremental_energy",
    "solve_step",
    "solve_static",
    "convexity_guard",
]

_ARMIJO_C1 = 1e-4
_MIN_STEP = 1e-14


class StepSolverError(RuntimeError):
    """Newton stagnation; carries the last iterate and its residual."""

    def __init__(self, message: str, u_last=None, grad_norm: float = np.nan):
        super().__init__(message)
        self.u_last = u_last
        self.grad_norm = grad_norm


class ConvexityError(RuntimeError):
    """The incremental functional is not strictly convex for this time step."""


class StepWorkspace:
    """Reusable factorization of the history-independent SPD block ``H0``.

    ``tau=None`` builds the static variant (elastic stiffness only), used for
    the equilibrium recomputation of initial data.
    """

    def __init__(self, ops: DiscreteOperators, tau: float | None):
        free = ops.free_dofs
        ix = np.ix_(free, free)
        self.free = free
        self.M_ff = ops.M[ix].tocsr()
        self.Aeta_ff = ops.A_eta[ix].tocsr()
        self.Amu_ff = ops.A_mu[ix].tocsr()
        self.B_f = ops.B[:, free].tocsr()
        self.weights = ops.weights
        self.tau = tau
        if tau is None:
            H0 = self.Amu_ff
        else:
            H0 = self.M_ff / tau**2 + self.Aeta_ff / tau + self.Amu_ff
        self.H0_ff = H0.tocsr()
        self.schur = InterfaceSchur(self.H0_ff, self.B_f)

    def newton_direction(self, g: np.ndarray, d_curv: np.ndarray) -> np.ndarray:
        """Solve ``(H0 + B' diag(d_curv) B) d = -g`` via the Woodbury identity."""
        y = self.schur.solve(g)
        z = np.linalg.solve(np.eye(d_curv.size) + self.schur.S * d_curv[None, :],
                            self.B_f @ y)
        return self.schur.X @ (d_curv * z) - y


@dataclass
class StepProblem:
    """Data of one incremental minimization.

    ``xi_prev`` must be strictly positive everywhere (regularized regime);
    the cohesive term is then continuously differentiable.
    """

    tau: float
    u_prev: np.ndarray
    u_prev2: np.ndarray
    xi_prev: np.ndarray
    f_k: np.ndarray
    ops: DiscreteOperators
    law: CohesiveLaw
    workspace: StepWorkspace | None = None


@dataclass
class StepResult:
    u_new: np.ndarray
    xi_new: np.ndarray
    newton_iters: int
    grad_norm: float
    el_residual: float


def _full_vector(u, prob: StepProblem) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    n = prob.ops.n_nodes
    free = prob.ops.free_dofs
    if u.shape == (n,):
        return u
    if u.shape == (free.size,):
        full = np.zeros(n)
        full[free] = u
        return full
    raise ValueError(f"displacement vector has size {u.size}, expected {n} or {free.size}")


def incremental_energy(u, prob: StepProblem) -> float:
    """Value of the incremental functional at ``u`` (free or full vector)."""
    u = _full_vector(u, prob)
    ops, tau = prob.ops, prob.tau
    d2 = u - 2.0 * prob.u_prev + prob.u_prev2
    d1 = u - prob.u_prev
    val = 0.5 / tau**2 * (d2 @ (ops.M @ d2))
    val += 0.5 / tau * (d1 @ (ops.A_eta @ d1))
    val += 0.5 * (u @ (ops.A_mu @ u)) - prob.f_k @ u
    jumps = ops.B @ u
    val += float(ops.weights @ prob.law.psi(jumps, prob.xi_prev))
    return float(val)


def _interface_curvature(law: CohesiveLaw, jumps: np.ndarray, xi: np.ndarray,
                         weights: np.ndarray) -> np.ndarray:
    aw = np.abs(jumps)
    elastic = aw <= xi
    c_el = law.env.slope(xi) / xi
    c_soft = np.maximum(law.env.curvature(aw), 0.0)
    return weights * np.where(elastic, c_el, c_soft)


def _minimize(ws: StepWorkspace, law: CohesiveLaw, xi: np.ndarray,
              quad_grad, value, u0_f: np.ndarray, tol_abs: float,
              max_iter: int, trace=None):
    """Damped Newton with Armijo backtracking; returns (u_f, iters, grad_norm)."""
    w = ws.weights
    u = u0_f.copy()

    def gradient(uf):
        jumps = ws.B_f @ uf
        return quad_grad(uf) + ws.B_f.T @ (w * law.dpsi_dw(jumps, xi)), jumps

    g, jumps = gradient(u)
    gnorm = float(np.abs(g).max(initial=0.0))
    J = value(u)
    if trace is not None:
        trace.append(J)
    iters = 0
    while gnorm > tol_abs and iters < max_iter:
        d_curv = _interface_curvature(law, jumps, xi, w)
        d = ws.newton_direction(g, d_curv)
        slope = float(g @ d)
        if slope >= 0.0:  # SPD construction should prevent this
            d = -g
            slope = -float(g @ g)
        alpha = 1.0
        J_try = value(u + d)
        accepted_by_residual = False
        if J_try <= J + _ARMIJO_C1 * slope:
            # expand: the clamped softening curvature can overestimate the
            # true one near the branch kink, making unit steps far too short
            while alpha < 2.0**30:
                J_next = value(u + 2.0 * alpha * d)
                if J_next >= J_try:
                    break
                alpha *= 2.0
                J_try = J_next
        elif abs(J_try - J) <= 64.0 * np.finfo(float).eps * max(1.0, abs(J)):
            # energy differences are below rounding resolution; accept the
            # full Newton step on strict residual decrease instead
            g_new, jumps_new = gradient(u + d)
            gn_new = float(np.abs(g_new).max(initial=0.0))
            if gn_new <= 0.9 * gnorm:
                accepted_by_residual = True
            else:
                raise StepSolverError(
                    "Newton stagnation at the energy rounding floor",
                    u_last=u, grad_norm=gnorm)
        else:
            while True:
                alpha *= 0.5
                if alpha < _MIN_STEP:
                    raise StepSolverError(
                        "Newton stagnation: no descent step above minimal length",
                        u_last=u, grad_norm=gnorm)
                J_try = value(u + alpha * d)
                if J_try <= J + _ARMIJO_C1 * alpha * slope:
                    break
        u = u + alpha * d
        J = J_try
        if trace is not None:
            trace.append(J)
        if accepted_by_residual:
            g, jumps, gnorm = g_new, jumps_new, gn_new
        else:
            g, jumps = gradient(u)
            gnorm = float(np.abs(g).max(initial=0.0))
        iters += 1
    if gnorm > tol_abs:
        raise StepSolverError(
            f"Newton did not converge in {max_iter} iterations (residual {gnorm:.3e})",
            u_last=u, grad_norm=gnorm)
    # polish: a few full steps to push the residual toward machine precision,
    # so traction/transmission audits are solver-noise free
    for _ in range(3):
        d_curv = _interface_curvature(law, jumps, xi, w)
        d = ws.newton_direction(g, d_curv)
        u_try = u + d
        g_try, jumps_try = gradient(u_try)
        gn_try = float(np.abs(g_try).max(initial=0.0))
        if gn_try >= gnorm:
            break
        u, g, jumps, gnorm = u_try, g_try, jumps_try, gn_try
        iters += 1
    return u, iters, gnorm


def solve_step(prob: StepProblem, tol: float = 1e-10, max_iter: int = 60,
               trace=None) -> StepResult:
    """Minimize the incremental functional and apply the history max-update."""
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if np.any(prob.xi_prev <= 0.0):
        raise ValueError("xi_prev must be strictly positive (regularized regime)")
    ops, tau = prob.ops, prob.tau
    ws = prob.workspace if prob.workspace is not None else StepWorkspace(ops, tau)
    if ws.tau != tau:
        raise ValueError("workspace was built for a different time step")
    free = ws.free

    u1 = prob.u_prev[free]
    u2 = prob.u_prev2[free]
    f = prob.f_k[free]
    # constant part of the quadratic gradient
    b = -(ws.M_ff @ (2.0 * u1 - u2)) / tau**2 - (ws.Aeta_ff @ u1) / tau - f

    def quad_grad(uf):
        return ws.H0_ff @ uf + b

    def value(uf):
        return incremental_energy(uf, prob)

    tol_abs = tol * (1.0 + float(np.abs(prob.f_k).max(initial=0.0)))
    u0 = 2.0 * u1 - u2  # second-order accurate predictor
    u_f, iters, gnorm = _minimize(ws, prob.law, prob.xi_prev, quad_grad, value,
                                  u0, tol_abs, max_iter, trace)

    u_new = np.zeros(ops.n_nodes)
    u_new[free] = u_f
    jumps = ops.B @ u_new
    xi_new = np.maximum(prob.xi_prev, np.abs(jumps))

    # a-posteriori form: the Euler-Lagrange residual with the updated history
    g_post = quad_grad(u_f) + ws.B_f.T @ (ws.weights * prob.law.dpsi_dw(jumps, xi_new))
    el_residual = float(np.abs(g_post).max(initial=0.0))

    return StepResult(u_new=u_new, xi_new=xi_new, newton_iters=iters,
                      grad_norm=gnorm, el_residual=el_residual)


def solve_static(ops: DiscreteOperators, law: CohesiveLaw, xi: np.ndarray,
                 f_eff: np.ndarray, tol: float = 1e-10, max_iter: int = 60,
                 workspace: StepWorkspace | None = None) -> np.ndarray:
    """Minimize ``1/2 u' A_mu u - f_eff . u + sum_j w_j psi([u]_j, xi_j)``.

    Used for the equilibrium recomputation of initial data; ``f_eff`` already
    collects the load and any fixed linear terms.
    """
    if np.any(xi <= 0.0):
        raise ValueError("xi must be strictly positive (regularized regime)")
    ws = workspace if workspace is not None else StepWorkspace(ops, None)
    free = ws.free
    f = f_eff[free]

    def quad_grad(uf):
        return ws.Amu_ff @ uf - f

    def value(uf):
        full = np.zeros(ops.n_nodes)
        full[free] = uf
        jumps = ops.B @ full
        return float(0.5 * (uf @ (ws.Amu_ff @ uf)) - f @ uf
                     + ops.weights @ law.psi(jumps, xi))

    tol_abs = tol * (1.0 + float(np.abs(f_eff).max(initial=0.0)))
    u_f, _, _ = _minimize(ws, law, xi, quad_grad, value,
                          np.zeros(free.size), tol_abs, max_iter)
    u = np.zeros(ops.n_nodes)
    u[free] = u_f
    return u


def convexity_guard(prob: StepProblem) -> bool:
    """Exact test of the step's convexity condition.

    True when ``K - beta B' W B`` is positive definite on the free DOFs, with
    ``K = A_eta / tau + A_mu`` and ``beta`` the law's curvature bound; the
    incremental functional is then strictly convex for every history (the
    mass term ``M / tau^2`` only adds to it and is left out).  As ``K`` is
    SPD, the condition holds exactly when ``beta * lambda_max(W^1/2 S W^1/2)
    < 1`` for the interface Schur complement ``S = B K^-1 B'``.
    """
    ops, tau = prob.ops, prob.tau
    free = ops.free_dofs
    ix = np.ix_(free, free)
    K = ops.A_eta[ix] / tau + ops.A_mu[ix]
    schur = InterfaceSchur(K, ops.B[:, free])
    return bool(prob.law.beta * schur.lambda_max(ops.weights) < 1.0)
