"""Time loop: initial-data regularization, step iteration, trajectory record.

Given initial data ``(u0, v0, xi0)``, the history variable is floored at
``eps_bar > 0`` so the cohesive energy is differentiable along the whole
evolution, and the scheme

    u_{-1} = u0 - tau v0,   u_k = argmin J_k,   xi_k = max(xi_{k-1}, |[u_k]|)

is run for ``k = 1..n`` with ``tau = T/n`` and ``v_k = (u_k - u_{k-1})/tau``.

In ``regularity_mode`` (bounded-acceleration setting: ``[v0] = 0``, no
surface loads, and an initial acceleration field ``w0``) the initial
displacement is recomputed as the minimizer of the static energy augmented
by the viscous and inertial pairings of ``(v0, w0)``, which restores the
initial equilibrium condition for the floored history variable.

Per-step diagnostics (energies, dissipation and work, KKT violations, solver
stats, velocity/acceleration norms, per-pair history and jumps) go into one
table, a structured array with one row per step whose dtype ``step_dtype``
declares every column; full field snapshots are kept every
``snapshot_stride`` steps.  Inside the loop a step writes, through column
views, only what needs its full-size vectors, and reads every value the step
formed rather than forming it again (:class:`~cohesim.step.StepResult`): the
elastic energy ``E``, the jumps, ``psi`` and the frozen history with its
``psi(0, xi_k)``, whose dissipated energy ``Psi_d = w @ psi(0, xi_k)`` is
summed once per history, on the steps that grew a pair.  The products
``(M_unit u_k, A_unit u_k)`` of the step give ``K``, ``|v|_H1``, ``|a|_L2``
and the step's viscous dissipation and load work, as nodal scalings of these
products and their differences
(``M v_k = rho (M_unit u_k - M_unit u_{k-1}) / tau``), so a step makes no
sparse product beyond the two of its own state.  The columns that read only
the table, the four KKT violations that ``kkt.csv`` writes and
:class:`~cohesim.audit.KKTReport` reads, and the running sums ``D_cum`` and
``P_cum``, are filled in one vectorized pass after the loop, also on the
partial table of a failed run.  The table also keeps each step's bulk
residual at the pairs' nodes and its cohesive traction (the ``residual`` and
``traction`` of its :class:`~cohesim.step.StepResult`), from which the
traction audit (:func:`~cohesim.audit.traction_extraction`) reads the
tractions of all steps at once, so no consumer forms these values again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assembly import (DiscreteOperators, LoadError, LoadModel, Materials, assemble,
                       load_vector)
from .law import CohesiveLaw
from .mesh import InterfaceMesh, jumps
from .step import (
    ConvexityError,
    StepProblem,
    StepSolverError,
    StepWorkspace,
    convexity_guard,
    solve_static,
    solve_step,
)

__all__ = [
    "Scenario",
    "EvolutionState",
    "TrajectoryRecord",
    "EvolutionError",
    "regularize_initial_data",
    "run",
    "trajectory_distance",
]


class EvolutionError(RuntimeError):
    """Aborted run; carries the partial trajectory accumulated so far and
    the failed step (0 before step 1).  The message is the cause alone."""

    def __init__(self, message: str, partial: "TrajectoryRecord | None" = None,
                 step: int = 0):
        super().__init__(message)
        self.partial = partial
        self.step = step


@dataclass
class Scenario:
    """Complete problem description for one evolution."""

    mesh: InterfaceMesh
    materials: Materials
    law: CohesiveLaw
    loads: LoadModel
    T: float
    n: int
    u0: np.ndarray
    v0: np.ndarray
    xi0: np.ndarray
    eps_bar: float
    regularity_mode: bool = False
    w0: np.ndarray | None = None

    def __post_init__(self):
        if not (0.0 < self.T < np.inf) or self.n < 1:
            raise ValueError("time horizon T must be positive and finite with n >= 1 steps")
        if not (0.0 < self.eps_bar < np.inf):
            raise ValueError("history floor eps_bar must be positive and finite")
        if not self.loads.t_final >= self.T:
            raise ValueError(f"the loads end at t = {self.loads.t_final!r}, before the "
                             f"time horizon T = {self.T!r}")
        N, P = self.mesh.n_nodes, self.mesh.n_pairs
        self.u0 = np.asarray(self.u0, dtype=float)
        self.v0 = np.asarray(self.v0, dtype=float)
        self.xi0 = np.asarray(self.xi0, dtype=float)
        if self.u0.shape != (N,) or self.v0.shape != (N,):
            raise ValueError("u0 and v0 must be nodal vectors")
        if self.xi0.shape != (P,):
            raise ValueError("xi0 must have one value per interface pair")
        if np.any(self.xi0 < 0.0):
            raise ValueError("xi0 must be nonnegative")
        scale = max(1.0, float(np.abs(self.u0).max(initial=0.0)))
        dnodes = self.mesh.dirichlet_nodes
        if np.abs(self.u0[dnodes]).max(initial=0.0) > 1e-12 * scale:
            raise ValueError("u0 must vanish on the Dirichlet boundary")
        if np.abs(self.v0[dnodes]).max(initial=0.0) > 1e-12 * scale:
            raise ValueError("v0 must vanish on the Dirichlet boundary")
        # the steps read the entries accepted there as 0, and so do the record,
        # the regularization and the audits
        self.u0, self.v0 = self.u0.copy(), self.v0.copy()
        self.u0[dnodes] = self.v0[dnodes] = 0.0
        pairs = self.mesh.interface_pairs.T
        if np.any(np.abs(jumps(self.u0, pairs)) > self.xi0 + 1e-12 * max(1.0, scale)):
            raise ValueError("initial data violate |[u0]| <= xi0")
        if self.regularity_mode:
            if self.w0 is None:
                raise ValueError("regularity_mode requires the initial acceleration w0")
            self.w0 = np.asarray(self.w0, dtype=float)
            if self.w0.shape != (N,):
                raise ValueError("w0 must be a nodal vector")
            jv = jumps(self.v0, pairs)
            if np.abs(jv).max(initial=0.0) > 1e-12 * max(1.0, np.abs(self.v0).max()):
                raise ValueError("regularity_mode requires a jump-free initial velocity")
            if not self.loads.surface_is_zero:
                raise ValueError("regularity_mode requires vanishing surface loads")

    @property
    def tau(self) -> float:
        return self.T / self.n

    def with_eps(self, eps_bar: float) -> "Scenario":
        return replace(self, eps_bar=eps_bar)


@dataclass
class EvolutionState:
    t: float
    u: np.ndarray
    v: np.ndarray
    xi: np.ndarray
    k: int


KKT_COLUMNS = ("admissibility", "complementarity", "slope", "xi_monotone")   # as in kkt.csv
_FLOAT_COLUMNS = ("ts", "E", "K", "Psi", "Psi_s", "Psi_d", "D_cum", "P_cum", *KKT_COLUMNS,
                  "grad_norms", "el_residuals", "v_h1", "a_l2")


def step_dtype(n_pairs: int) -> np.dtype:
    """Row type of ``TrajectoryRecord.steps``: scalars, Newton iterations, the
    history ``xis`` and jump ``jumps`` of each interface pair, and the step's
    bulk residual at the pairs' plus and minus nodes (``residual``, two rows)
    and cohesive traction (``traction``)."""
    return np.dtype([(name, float) for name in _FLOAT_COLUMNS]
                    + [("newton_iters", int), ("xis", float, (n_pairs,)),
                       ("jumps", float, (n_pairs,)), ("residual", float, (2, n_pairs)),
                       ("traction", float, (n_pairs,))])


class StepColumns:
    """Reads the columns of ``self.steps`` as attributes (``obj.E``)."""

    def __getattr__(self, name):
        steps = self.__dict__.get("steps")
        if steps is not None and name in steps.dtype.names:
            return steps[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


@dataclass
class TrajectoryRecord(StepColumns):
    """Diagnostics and snapshots of one run.

    ``steps`` holds one row of ``step_dtype`` per step ``0..n`` (fewer in the
    partial record of a failed run); its columns read as attributes, so
    ``rec.E`` is the elastic energy over the steps and ``rec.xis[k]`` the
    history at step ``k``.  Row 0 and snapshot 0 carry the initial data
    actually used, after the regularization; the increments, solver columns,
    residual and traction of row 0 are zero.
    """

    steps: np.ndarray
    us: dict
    vs: dict
    ops: DiscreteOperators
    law: CohesiveLaw
    loads: LoadModel
    tau: float

    @property
    def n_steps(self) -> int:
        return self.steps.size - 1

    @property
    def snapshot_steps(self) -> list:
        """The steps whose fields ``us`` and ``vs`` hold, in order."""
        return list(self.us)

    def state(self, k: int) -> EvolutionState:
        """Reconstruct the state at a snapshot step."""
        if k not in self.us:
            raise KeyError(f"step {k} was not snapshot (stride too large)")
        return EvolutionState(t=float(self.ts[k]), u=self.us[k], v=self.vs[k],
                              xi=self.xis[k], k=k)


def regularize_initial_data(scenario: Scenario, ops: DiscreteOperators | None = None,
                            tol: float = 1e-10):
    """Floor the history variable and, in regularity mode, recompute ``u0``.

    Returns ``(u0_eff, v0_eff, xi0_eff)``.  With ``regularity_mode`` the
    effective displacement minimizes
    ``F(0, u, xi_hat) + (A_eta v0) . u + (M w0) . u`` and the history is
    re-floored at the resulting jump by the static solve's post-step pass,
    whose a-posteriori residual asserts the stationarity of the recomputed
    triple.
    """
    xi_hat = np.maximum(scenario.eps_bar, scenario.xi0)
    if not scenario.regularity_mode:
        return scenario.u0.copy(), scenario.v0.copy(), xi_hat
    if ops is None:
        ops = assemble(scenario.mesh, scenario.materials)
    f0 = load_vector(scenario.loads, 0.0)
    # the fixed pairings A_eta v0 + M w0
    pairings = ops.eta * (ops.A_unit @ scenario.v0) + ops.rho * (ops.M_unit @ scenario.w0)
    f_eff = f0 - pairings
    res = solve_static(ops, scenario.law, xi_hat, f_eff, tol=tol)
    tol_abs = 10.0 * tol * (1.0 + float(np.abs(f_eff).max(initial=0.0)))
    if res.el_residual > tol_abs:
        raise EvolutionError(
            f"recomputed initial data are not stationary (residual {res.el_residual:.3e})")
    return res.u_new, scenario.v0.copy(), res.xi_new


def _finish_step_table(steps: np.ndarray) -> np.ndarray:
    """Fill the columns that read only the step table and return it: the four
    KKT violations from ``xis`` and ``jumps``, in one vectorized pass over
    rows ``1..n``, and ``D_cum`` and ``P_cum`` as running sums of the per-step
    increments they hold.  ``np.cumsum`` adds in row order, as a step-by-step
    sum would."""
    xis, jumps = steps["xis"], steps["jumps"]
    gap = np.abs(jumps[1:]) - xis[1:]           # |[u_k]| - xi_k
    growth = xis[1:] - xis[:-1]
    steps["admissibility"][1:] = np.maximum(0.0, gap.max(axis=1))
    steps["complementarity"][1:] = np.abs(growth * gap).max(axis=1)
    steps["slope"][1:] = np.maximum(
        0.0, (np.abs(growth) - np.abs(jumps[1:] - jumps[:-1])).max(axis=1))
    # not -growth, whose +0.0 entries would turn -0.0
    steps["xi_monotone"][1:] = np.maximum(0.0, (xis[:-1] - xis[1:]).max(axis=1))
    for name in ("D_cum", "P_cum"):
        np.cumsum(steps[name], out=steps[name])
    return steps


@np.errstate(over="ignore", invalid="ignore")
def run(scenario: Scenario, tol: float = 1e-10,
        snapshot_stride: int = 1, ops: DiscreteOperators | None = None) -> TrajectoryRecord:
    """Execute the full time loop and return the trajectory record.  A load
    that is not finite fails its step (:class:`~cohesim.assembly.LoadError`)
    and a state that overflows the next one, so numpy's warnings are off."""
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be >= 1")
    if ops is None:
        ops = assemble(scenario.mesh, scenario.materials)
    law = scenario.law
    tau = scenario.tau
    n = scenario.n

    u0, v0, xi0 = regularize_initial_data(scenario, ops, tol=tol)

    # the guard reads the step's own factorization of H0
    ws = StepWorkspace(ops, tau)
    if not convexity_guard(ws, law.beta):
        raise ConvexityError(
            f"incremental functional not strictly convex (step margin "
            f"1 - beta*lambda_max = {ws.margin(law.beta)!r}); reduce the time step tau")
    # formed after the factorization, whose peak they would raise; u0 and v0
    # are fresh arrays that the loop reads and never writes, so the states of
    # steps 0 and -1 need no copy of their own (the snapshots keep copies)
    u_prev, u_prev2 = u0, u0 - tau * v0

    steps = np.zeros(n + 1, dtype=step_dtype(scenario.mesh.n_pairs))
    steps["ts"] = np.arange(n + 1) * tau
    rec = TrajectoryRecord(steps=steps, us={}, vs={}, ops=ops, law=law, loads=scenario.loads,
                           tau=tau)
    # column views; D_cum and P_cum hold each step's increment until the loop ends
    col = {name: steps[name] for name in steps.dtype.names}
    weights = ops.weights

    def record_state(k, elastic, v, v_products, jumps, psi, hist, dissipated):
        """Write the state columns of row ``k`` at history ``hist``, whose
        ``dissipated`` energy is ``w @ psi(0, xi)``, from the elastic energy
        of the state and the products of ``v`` (``ops.products``); return
        ``v' A_eta v``."""
        m_v, a_v = v_products
        col["E"][k] = elastic
        col["K"][k] = 0.5 * (v @ (ops.rho * m_v))
        psi_d = hist.psi_at_zero()
        psi_s = psi - psi_d
        col["Psi"][k] = weights @ (psi_s + psi_d)
        col["Psi_s"][k] = weights @ psi_s
        col["Psi_d"][k] = dissipated
        col["xis"][k] = hist.xi
        col["jumps"][k] = jumps
        col["v_h1"][k] = np.sqrt(max(v @ a_v + v @ m_v, 0.0))
        return v @ (ops.eta * a_v)

    jumps0 = ops.jumps(u0)
    hist = law.frozen(xi0)
    products, products2 = ops.products(u0), ops.products(u_prev2)
    v_products = ops.products(v0)
    psi0, dpsi0 = hist.evaluate(jumps0)[:2]
    # formed once per frozen history, which most steps hand on unchanged
    dissipated = weights @ hist.psi_at_zero()
    record_state(0, 0.5 * (u0 @ (ops.mu * products[1])), v0, v_products, jumps0, psi0, hist,
                 dissipated)
    if scenario.regularity_mode:
        col["a_l2"][0] = ops.l2_norm(scenario.w0)
    rec.us[0], rec.vs[0] = u0.copy(), v0.copy()

    v_prev = v0
    # the multipliers of steps k-1 and k-2, extrapolated to warm-start step k;
    # step 1 starts from those of the initial data, -w psi'([u_0], xi_0)
    lam_prev = lam_prev2 = -weights * dpsi0
    for k in range(1, n + 1):
        try:
            f_k = load_vector(scenario.loads, k * tau)
            res = solve_step(StepProblem(tau, u_prev, u_prev2, f_k, ops, law, ws, hist,
                                         (products, products2), 2.0 * lam_prev - lam_prev2),
                             tol=tol)
        except (LoadError, StepSolverError) as exc:
            rec.steps = _finish_step_table(steps[:k])
            raise EvolutionError(str(exc), partial=rec, step=k) from exc
        u_k = res.u_new
        v_k = (u_k - u_prev) / tau

        # M_unit v_k and A_unit v_k, from the products of u_k and u_{k-1}
        v_products_k = ((res.products[0] - products[0]) / tau,
                        (res.products[1] - products[1]) / tau)
        if res.history is not hist:
            dissipated = weights @ res.history.psi_at_zero()
        vAv = record_state(k, res.elastic, v_k, v_products_k, res.jumps, res.psi, res.history,
                           dissipated)
        col["D_cum"][k] = tau * vAv
        col["P_cum"][k] = tau * (f_k @ v_k)
        col["newton_iters"][k] = res.newton_iters
        col["grad_norms"][k] = res.grad_norm
        col["el_residuals"][k] = res.el_residual
        col["residual"][k] = res.residual
        col["traction"][k] = res.traction
        accel = (v_k - v_prev) / tau
        col["a_l2"][k] = np.sqrt(max(accel @ ((v_products_k[0] - v_products[0]) / tau), 0.0))

        if k % snapshot_stride == 0 or k == n:
            rec.us[k], rec.vs[k] = u_k.copy(), v_k.copy()

        u_prev2, u_prev = u_prev, u_k
        products2, products = products, res.products
        v_prev, v_products = v_k, v_products_k
        hist = res.history
        lam_prev2, lam_prev = lam_prev, res.lam

    _finish_step_table(steps)
    return rec


def trajectory_distance(coarse: TrajectoryRecord, fine: TrajectoryRecord,
                        injection: np.ndarray | None = None) -> float:
    """``max_t || u_c(t) - u_f(t)[injection] ||_L2`` in the coarse mass.

    The maximum runs over the coarse snapshot times ``t`` that are also fine
    snapshot times; fine step ``round(t / fine.tau)`` is matched with ``t``.
    ``injection`` indexes the fine node coincident with each coarse node
    (None when both records live on the same mesh).
    """
    d = 0.0
    for k in coarse.snapshot_steps:
        kf = int(round(coarse.ts[k] / fine.tau))
        if kf in fine.us:
            u_f = fine.us[kf] if injection is None else fine.us[kf][injection]
            d = max(d, coarse.ops.l2_norm(coarse.us[k] - u_f))
    return d
