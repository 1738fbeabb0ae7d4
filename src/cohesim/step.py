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

The bulk part of the functional is quadratic, ``1/2 u' H0 u + b . u`` with
the SPD block ``H0 = M/tau^2 + A_eta/tau + A_mu`` and ``b`` collecting the
previous states and the load; only the ``n_pairs`` jumps are nonlinear.  The
step is therefore condensed onto the interface (static condensation, as in
the FETI interface problem): with ``S = B H0^-1 B'``, the minimizer is
``u(lam) = H0^-1 (B' lam - b)`` for the interface multipliers ``lam``
(minus the cohesive forces at the solution) that minimize

    phi(lam) = 1/2 lam' S lam + sum_j w_j psi(j_lin + S lam, xi_prev_j),

``j_lin = -B H0^-1 b``, which equals the incremental functional at
``u(lam)`` up to a constant.  The full-space gradient at ``u(lam)`` is
``B' r`` with ``r = lam + w psi'(j)``; interface nodes are never Dirichlet
nodes and each node lies in at most one pair, so ``|B' r|_inf = |r|_inf``
and the convergence test on ``r`` is the full-space one.

A damped Newton method (the history floor ``xi_prev > 0`` keeps ``psi`` C1)
starts from the multipliers :attr:`StepProblem.lam0`: in a run, the
second-order extrapolation ``2 lam_{k-1} - lam_{k-2}`` of the multipliers
the two previous steps accepted (step 1 starts from those of the initial
data, ``-w psi'([u_0], xi_0)``), which costs no law pass; :func:`solve_static`
starts from zeros.  It solves
``(I + D S) delta = -r``, where ``D`` is ``w`` times the secant stiffness
``c_xi`` on the elastic branch and the softening curvature
``psi_hat''(|w|) >= -beta`` elsewhere.  When the step's margin
``1 - beta * lambda_max(W^1/2 S W^1/2)`` is positive, as the convexity guard
certifies before every run, ``I + D S`` is nonsingular for ``D >= -beta W``,
every direction descends and the method is a semismooth Newton method with a
quadratic rate (Qi & Sun, Math. Programming 58, 1993).  Without that margin
the softening curvature is clipped at zero, which keeps ``D >= 0``.  An Armijo
backtracking line search on ``phi`` guarantees monotone decrease.  A
converged residual above the rounding floor of the multipliers
(``_ROUNDING * max|lam|``) takes one polish step toward it; one at the floor,
where a step that converges in one iteration usually lands, makes no further
direction.  The solver records no iterates: a step stopped after ``max_iter``
iterations raises :class:`StepSolverError` with the displacement of its last
iterate.  ``H0 = L D L'`` is factorized once per time step size, with the
interface nodes last (:class:`~cohesim.assembly.InterfaceSchur`).

Per step, each quantity is formed once.  ``xi_prev`` is fixed for the whole
step, so its terms (``psi_hat(xi)``, ``psi_hat'(xi)``, ``xi^2``, ``2 xi`` and
``c_xi``) come from the previous step's post-step pass
(:attr:`StepProblem.history`, a :class:`~cohesim.law.FrozenHistory`).  The
bulk operators are unit forms scaled by node (``M = diag(rho) M_unit``,
``A_eta = diag(eta) A_unit``, ``A_mu = diag(mu) A_unit``; see
:class:`~cohesim.assembly.DiscreteOperators`), so every bulk quantity of
the step (``b``, the a-posteriori residual ``H0 u_new``, the incremental
energy) is a nodal scaling of the products ``(M_unit u, A_unit u)`` of
``u_new``, ``u_prev`` and ``u_prev2``; a run forms those of ``u_new`` once
and hands them on (:attr:`StepProblem.products`,
:attr:`StepResult.products`); the workspace keeps the coefficients
``rho / tau^2`` negated, as ``b`` reads them.  Jumps and the bulk residual at the pairs
are read by one gather each at the ``(2, n_pairs)`` index
(:attr:`~cohesim.assembly.DiscreteOperators.pair_index`) and ``B' r`` is
scattered by index; ``B`` is notation and a test oracle, never formed.  A
step then costs one forward sweep ``y = L^-1 b``, which gives ``j_lin`` from
its interface rows, the Newton iterations in the ``n_pairs`` unknowns, one
backward sweep from ``y`` to recover ``u`` and two full-size sparse
products, one CSR kernel call each
(:meth:`~cohesim.assembly.DiscreteOperators.products`).  A trial point costs
one ``S @ lam`` and one law pass
(:meth:`~cohesim.law.FrozenHistory.branches`), giving ``phi``, ``r``,
``|r|_inf``, the branch masks and whether every pair is strictly inside its
cone ``|[u]| < xi``: then, as on most steps, the pass is the unloading branch
alone, and otherwise it makes one envelope pass (``value_slope``).  An
accepted point reuses them for its residual test and its curvature ``D``,
which takes the history's ``c_xi`` on that flag without testing the mask
again and reads the envelope's curvature only when a pair is off the
elastic branch, so a point is never evaluated twice, and a direction forms
``I + D S`` in place, in Fortran order, for one LAPACK ``dgesv`` solve,
whose ``info`` is checked so that a singular system raises
``LinAlgError``.  A step that converges in one Newton direction thus makes
two law passes, at its start and at the Newton point.
The post-step pass makes one envelope pass over the history, to freeze
``xi_k``, only when the max-update grew a pair; on an elastic or unloading
step ``xi_k`` is ``xi_{k-1}`` bit for bit and the step hands its own frozen
history on, with the ``psi(0, xi)`` it already holds.  The workspace keeps the
nodal coefficients of ``H0``, the triangular factor ``U = D L'`` and ``S``;
vectors are nodal and ``b`` vanishes on the Dirichlet nodes; no dense
nodes x pairs array is kept.

After the solve, one post-step pass forms the products of ``u_k``, its
elastic energy ``1/2 u_k' A_mu u_k`` and the jumps ``[u_k]`` and their
magnitudes once, which the max-update shares with the law, and evaluates
the law on the updated history's own cone ``|[u_k]| <= xi_k``, where the
max-update leaves every pair
(:meth:`~cohesim.law.FrozenHistory.evaluate_on_cone`: ``psi_hat(xi_k)`` where
``|[u_k]| = xi_k``, the unloading branch elsewhere and the traction
``c_xi [u_k]``), with no envelope pass over the openings.
:class:`StepResult` carries its values ``psi([u_k], xi_k)`` and
``psi'([u_k], xi_k)`` (the cohesive traction) and the frozen history at
``xi_k`` (the step's own when no pair grew), with ``psi(0, xi_k)``, the
dissipated part, formed once per history; the a-posteriori
residual, the time loop's energy and jump columns, the traction audit and
the next step read them, so none of them evaluates the law again;
:attr:`StepResult.energy` reads its ``psi`` and the elastic energy
(:attr:`StepResult.elastic`) too, which the time loop records as ``E``.
Each value is bit-identical to the corresponding
:class:`~cohesim.law.CohesiveLaw` call.
The bulk part ``H0 u_k + b`` of the a-posteriori residual at the pairs'
nodes (:attr:`StepResult.residual`, a ``(2, n_pairs)`` array of the plus
and minus rows) is the residual ``M a_k + A_eta v_k + A_mu u_k - f_k`` of the
traction audit, which forms no other.  :func:`solve_static` makes the same
pass, whose residual gates the recomputed initial data and whose energy
reads the same elastic energy.

The step is well posed when ``H0 - beta B' W B`` is positive definite, which
makes the functional strictly convex for every history; :func:`convexity_guard`
decides this exactly from the workspace's own ``S``, so a run factorizes
``H0`` once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgesv

from .assembly import DiscreteOperators, InterfaceSchur
from .law import CohesiveLaw, FrozenHistory

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
_ROUNDING = 64.0 * np.finfo(float).eps
_MAX_ITER = 60


class StepSolverError(RuntimeError):
    """Newton stagnation; carries the last iterate and its residual."""

    def __init__(self, message: str, u_last=None, grad_norm: float = np.nan):
        super().__init__(message)
        self.u_last = u_last
        self.grad_norm = grad_norm


class ConvexityError(RuntimeError):
    """The incremental functional is not strictly convex for this time step."""


class StepWorkspace:
    """Reusable interface-last factorization of the history-independent SPD
    block ``H0 = diag(mass) M_unit + diag(stiffness) A_unit``, with the nodal
    coefficients ``mass = rho / tau^2`` and ``stiffness = eta / tau + mu``:
    ``schur`` holds ``S`` and sweeps the factor forward and backward.  The
    mass coefficients are kept negated (``minus_mass``), as the step's ``b``
    reads them, so no step negates them again.

    ``tau=None`` builds the static variant (elastic stiffness only), used for
    the equilibrium recomputation of initial data.
    """

    def __init__(self, ops: DiscreteOperators, tau: float | None):
        self.weights = ops.weights
        self.tau = tau
        if tau is None:
            mass, self.stiffness = np.zeros(ops.n_nodes), ops.mu
        else:
            mass, self.stiffness = ops.rho / tau**2, ops.eta / tau + ops.mu
        self.schur = InterfaceSchur(ops.combination(mass, self.stiffness), ops.pairs,
                                    ops.free_dofs)
        # negated in place once H0 is factorized, so that no array is added
        self.minus_mass = np.negative(mass, out=mass)

    @cached_property
    def lambda_max(self) -> float:
        """Largest eigenvalue of ``W^1/2 S W^1/2``."""
        return self.schur.lambda_max(self.weights)

    def margin(self, beta: float) -> float:
        """``1 - beta * lambda_max``: the step is strictly convex for every
        history of a law with curvature bound ``beta`` exactly when it is positive."""
        return 1.0 - beta * self.lambda_max

    def newton_direction(self, r: np.ndarray, d_curv: np.ndarray) -> np.ndarray:
        """Interface Newton direction: solve ``(I + diag(d_curv) S) delta = -r``
        with LAPACK ``dgesv``; a singular system raises ``LinAlgError``.

        ``S`` is exactly symmetric, so the C-order ``S diag(d_curv) + I`` is
        ``(I + diag(d_curv) S)'`` and its transpose hands LAPACK the system in
        Fortran order without a copy."""
        A = self.schur.S * d_curv
        A.reshape(-1)[::d_curv.size + 1] += 1.0     # the diagonal, through a view
        delta, info = dgesv(A.T, -r, overwrite_a=True, overwrite_b=True)[2:]
        if info != 0:
            raise np.linalg.LinAlgError(f"Newton system is singular (dgesv info {info})")
        return delta


@dataclass
class StepProblem:
    """Data of one incremental minimization, as the time loop hands it on.

    ``history`` is ``law.frozen(xi_prev)``, whose history ``xi_prev`` must be
    strictly positive everywhere (regularized regime); the cohesive term is
    then continuously differentiable.  ``u_prev`` and ``u_prev2`` vanish on the
    Dirichlet nodes, as every state of a run does.
    """

    tau: float
    u_prev: np.ndarray
    u_prev2: np.ndarray
    f_k: np.ndarray
    ops: DiscreteOperators
    law: CohesiveLaw
    workspace: StepWorkspace   # StepWorkspace(ops, tau)
    history: FrozenHistory
    products: tuple            # (ops.products(u_prev), ops.products(u_prev2))
    # where Newton starts, one multiplier per pair; run() passes
    # 2 lam_{k-1} - lam_{k-2}, from the lam of the two previous StepResults
    lam0: np.ndarray

    @property
    def xi_prev(self) -> np.ndarray:
        return self.history.xi


@dataclass
class StepResult:
    """The new state and the post-step pass's interface values at it."""

    u_new: np.ndarray
    xi_new: np.ndarray
    newton_iters: int
    grad_norm: float
    el_residual: float
    energy: float            # incremental functional at u_new
    elastic: float           # its elastic part 1/2 u_new' A_mu u_new, the record's E
    jumps: np.ndarray        # [u_new]
    psi: np.ndarray          # psi([u_new], xi_new)
    traction: np.ndarray     # psi'([u_new], xi_new), the cohesive traction
    # the accepted interface multipliers, minus the cohesive forces w psi'([u_new],
    # xi_prev) up to the residual grad_norm; the run extrapolates the next lam0
    lam: np.ndarray
    # H0 u_new + b at ops.pair_index, a (2, n_pairs) array of the plus and
    # minus nodes' rows, for the traction audit
    residual: np.ndarray
    # law.frozen(xi_new), or the step's own history when no pair grew, for
    # psi(0, xi_new) and the next step
    history: FrozenHistory
    products: tuple          # ops.products(u_new), for the record and the next step


def incremental_energy(u, prob: StepProblem, products: tuple | None = None,
                       psi: np.ndarray | None = None, elastic: float | None = None) -> float:
    """Value of the incremental functional at the nodal vector ``u``.

    ``products`` is ``prob.ops.products(u)`` when the caller has it; with the
    products of ``prob`` it makes every bulk term a nodal scaling.  ``psi``
    is ``psi([u], xi_prev)`` when the caller has it; otherwise the cohesive
    term is a law pass at ``prob.history``.  ``elastic`` is the elastic part
    ``0.5 * (u @ (mu * A_unit u))`` when the caller has it."""
    u = np.asarray(u, dtype=float)
    n = prob.ops.n_nodes
    if u.shape != (n,):
        raise ValueError(f"displacement vector has size {u.size}, expected {n}")
    ops, tau = prob.ops, prob.tau
    m, a = ops.products(u) if products is None else products
    (m1, a1), (m2, _) = prob.products
    d2 = u - 2.0 * prob.u_prev + prob.u_prev2
    d1 = u - prob.u_prev
    val = 0.5 / tau**2 * (d2 @ (ops.rho * (m - 2.0 * m1 + m2)))
    val += 0.5 / tau * (d1 @ (ops.eta * (a - a1)))
    if elastic is None:
        elastic = 0.5 * (u @ (ops.mu * a))
    val += elastic - prob.f_k @ u
    if psi is None:
        psi = prob.history.evaluate(ops.jumps(u))[0]
    val += float(ops.weights @ psi)
    return float(val)


class _Point(NamedTuple):
    """One trial point of the interface Newton method."""

    lam: np.ndarray
    phi: float
    r: np.ndarray             # gradient of phi up to S: lam + w psi'(jumps)
    rnorm: float
    aw: np.ndarray            # |jumps|
    elastic: np.ndarray       # |jumps| <= xi
    inside: bool              # |jumps| < xi for every pair, so every pair is elastic


def _minimize(ws: StepWorkspace, hist: FrozenHistory, beta: float, b: np.ndarray,
              lam0: np.ndarray, tol_abs: float, max_iter: int):
    """Damped Newton with Armijo backtracking on the interface functional
    ``phi(lam) = 1/2 lam' S lam + sum_j w_j psi(j_lin + S lam, xi_j)``.

    Returns ``(u, lam, iters, residual_norm)`` with the accepted multipliers
    ``lam`` and the minimizer's displacement ``u = H0^-1 (B' lam - b)``: the
    forward sweep of ``b`` gives ``j_lin`` and the backward sweep from it ``u``.
    """
    S, w = ws.schur.S, ws.weights
    y, j_lin = ws.schur.forward(b)
    certified = ws.margin(beta) > 0.0

    def point(lam) -> _Point:
        S_lam = S @ lam
        psi, dpsi, aw, elastic, inside = hist.branches(j_lin + S_lam)
        # the full-space gradient at u(lam) is B' r, and |B' r|_inf = |r|_inf
        r = lam + w * dpsi
        phi = 0.5 * float(lam @ S_lam) + float(w @ psi)
        return _Point(lam, phi, r, float(np.abs(r).max(initial=0.0)), aw, elastic, inside)

    def direction(p: _Point) -> np.ndarray:
        d = hist.curvature(p.aw, p.elastic, p.inside)
        # without the margin, I + D S may be singular for a softening D < 0
        return ws.newton_direction(p.r, w * (d if certified else np.maximum(d, 0.0)))

    def stagnation(message, p: _Point):
        return StepSolverError(message, u_last=ws.schur.backward(p.lam, y), grad_norm=p.rnorm)

    def check_finite(p: _Point):
        # an overflowed load or state is no minimizer, though an infinite
        # tol_abs would accept its residual
        if not (math.isfinite(p.phi) and math.isfinite(p.rnorm)):
            raise stagnation(f"non-finite state (phi {p.phi:.3e}, residual {p.rnorm:.3e})",
                             p)

    cur = point(lam0)
    check_finite(cur)
    iters = 0
    while not (cur.rnorm <= tol_abs) and iters < max_iter:
        delta = direction(cur)
        slope = float((S @ cur.r) @ delta)
        alpha = 1.0
        trial = point(cur.lam + delta)
        descent = trial.phi <= cur.phi + _ARMIJO_C1 * slope
        if not descent and abs(trial.phi - cur.phi) <= _ROUNDING * max(1.0, abs(cur.phi)):
            # differences are below rounding resolution; accept the full
            # Newton step on strict residual decrease instead
            if trial.rnorm > 0.9 * cur.rnorm:
                raise stagnation("Newton stagnation at the energy rounding floor", cur)
        elif not descent:
            while True:
                alpha *= 0.5
                if alpha < _MIN_STEP:
                    raise stagnation(
                        "Newton stagnation: no descent step above minimal length", cur)
                trial = point(cur.lam + alpha * delta)
                if trial.phi <= cur.phi + _ARMIJO_C1 * alpha * slope:
                    break
        cur = trial
        iters += 1
    check_finite(cur)
    if not (cur.rnorm <= tol_abs):
        raise stagnation(
            f"Newton did not converge in {max_iter} iterations (residual {cur.rnorm:.3e})",
            cur)
    # polish: a residual above the rounding floor of the multipliers takes one
    # more full step toward it, so traction/transmission audits are
    # solver-noise free; at the floor a direction would gain nothing
    if cur.rnorm > _ROUNDING * float(np.abs(cur.lam).max(initial=0.0)):
        trial = point(cur.lam + direction(cur))
        if trial.rnorm < cur.rnorm:
            cur = trial
            iters += 1
    return ws.schur.backward(cur.lam, y), cur.lam, iters, cur.rnorm


def solve_step(prob: StepProblem, tol: float = 1e-10, max_iter: int = _MAX_ITER) -> StepResult:
    """Minimize the incremental functional and apply the history max-update.

    A step that has not converged after ``max_iter`` Newton iterations raises
    :class:`StepSolverError`, whose ``u_last`` is the displacement of the
    last iterate."""
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if (prob.xi_prev <= 0.0).any():
        raise ValueError("xi_prev must be strictly positive (regularized regime)")
    ops, tau, ws = prob.ops, prob.tau, prob.workspace
    if ws.tau != tau:
        raise ValueError("workspace was built for a different time step")
    if prob.history.env is not prob.law.env:
        raise ValueError("history was frozen with a different envelope")
    # constant part of the quadratic gradient, M (2 u_prev - u_prev2) / tau^2 +
    # A_eta u_prev / tau - f_k from the products; load entries on Dirichlet
    # nodes count as 0
    (m1, a1), (m2, _) = prob.products
    b = ws.schur.constrained(ws.minus_mass * (2.0 * m1 - m2) - (ops.eta * a1) / tau - prob.f_k)

    tol_abs = tol * (1.0 + float(np.abs(prob.f_k).max(initial=0.0)))
    return _solve(ops, ws, prob.law, prob.history, b, prob.lam0, tol_abs, max_iter,
                  lambda u, products, psi, elastic:
                  incremental_energy(u, prob, products, psi, elastic))


def _solve(ops: DiscreteOperators, ws: StepWorkspace, law: CohesiveLaw, hist: FrozenHistory,
           b: np.ndarray, lam0: np.ndarray, tol_abs: float, max_iter: int, energy) -> StepResult:
    """Minimize (:func:`_minimize`) and make the post-step pass at the
    minimizer ``u``: its products and elastic energy, the jumps and their
    magnitudes, the max-update (a new frozen history only when it grew a
    pair), one law evaluation on the updated history's cone and the
    a-posteriori residual.  ``energy(u, products, psi, elastic)`` is the
    minimized functional at ``u``."""
    u, lam, iters, rnorm = _minimize(ws, hist, law.beta, b, lam0, tol_abs, max_iter)
    m, a = products = ops.products(u)
    elastic = 0.5 * (u @ (ops.mu * a))
    jumps = ops.jumps(u)
    aw = np.abs(jumps)
    xi_new = np.maximum(hist.xi, aw)
    # a step that grows no pair keeps its history, and the terms frozen with it
    hist_new = hist if (xi_new == hist.xi).all() else law.frozen(xi_new)
    psi, traction = hist_new.evaluate_on_cone(jumps, aw)

    # a-posteriori form: the Euler-Lagrange residual with the updated history
    # (H0 u on the free rows, as u vanishes on the Dirichlet nodes),
    # B' (w traction) added at the pairs' nodes after the audit's bulk part;
    # y - (-x) is y + x, so H0 u is mass * m + stiffness * a bit for bit
    g_post = ws.schur.constrained(ws.stiffness * a - ws.minus_mass * m) + b
    plus, minus = ops.pairs
    residual = g_post[ops.pair_index]
    cohesive = ws.weights * traction
    g_post[plus] = residual[0] + cohesive
    g_post[minus] = residual[1] - cohesive

    # psi([u], xi_new) is psi([u], xi_prev) bit for bit: the history grows
    # only on the loading branch, which reads no history
    return StepResult(u_new=u, xi_new=xi_new, newton_iters=iters, grad_norm=rnorm,
                      el_residual=float(np.abs(g_post).max(initial=0.0)),
                      energy=energy(u, products, psi, elastic), elastic=elastic,
                      jumps=jumps, psi=psi,
                      traction=traction, lam=lam, residual=residual, history=hist_new,
                      products=products)


def solve_static(ops: DiscreteOperators, law: CohesiveLaw, xi: np.ndarray,
                 f_eff: np.ndarray, tol: float = 1e-10) -> StepResult:
    """Minimize ``1/2 u' A_mu u - f_eff . u + sum_j w_j psi([u]_j, xi_j)``,
    the result's ``energy``, with the post-step pass of :func:`solve_step`.

    Used for the equilibrium recomputation of initial data; ``f_eff`` already
    collects the load and any fixed linear terms.
    """
    if np.any(xi <= 0.0):
        raise ValueError("xi must be strictly positive (regularized regime)")
    ws = StepWorkspace(ops, None)
    tol_abs = tol * (1.0 + float(np.abs(f_eff).max(initial=0.0)))
    return _solve(ops, ws, law, law.frozen(xi), ws.schur.constrained(-f_eff),
                  np.zeros(ws.weights.size), tol_abs, _MAX_ITER,
                  lambda u, products, psi, elastic: (elastic - f_eff @ u
                                                     + float(ops.weights @ psi)))


def convexity_guard(ws: StepWorkspace, beta: float) -> bool:
    """Exact test of the step's convexity condition.

    True when ``H0 - beta B' W B`` is positive definite on the free DOFs, with
    ``H0 = M / tau^2 + A_eta / tau + A_mu`` the quadratic part of the
    incremental functional and ``beta`` the law's curvature bound; the
    functional is then strictly convex for every history.  As ``H0`` is SPD,
    the condition holds exactly when :meth:`StepWorkspace.margin` is positive
    for the workspace's interface Schur complement ``S = B H0^-1 B'``.
    """
    return bool(ws.margin(beta) > 0.0)
