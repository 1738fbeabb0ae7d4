"""Per-run verification: energy balance, complementarity and interface
traction recovery.

The discrete energy ledger tracks, step by step,

    R_k = [E + Psi + K]_k - [E + Psi + K]_0 - P_cum,k + D_cum,k ,

which vanishes for the continuous evolution; its discrete magnitude measures
the time-discretization error and must shrink under step refinement.  The
split form replaces ``Psi`` by its stored part and books the interface
dissipation increments explicitly; the two residual families agree
algebraically.

Tractions are recovered by discrete Neumann extraction: interface hat
functions have one-sided support (duplicated DOFs), so pairing the bulk
residual ``M a + A_eta v + A_mu u - f`` with them isolates the boundary term
of one body, and dividing by the interface weight gives the nodal traction.
By the step's Euler-Lagrange equation this must match the cohesive traction
``dpsi_dw([u], xi)`` up to solver tolerance, with equal values from both
sides (transmission) and magnitude below the activation threshold.  Both come
from the step itself: the bulk residual at the interface nodes is the bulk
part ``H0 u_k + b`` of the step's a-posteriori residual
(:attr:`cohesim.step.StepResult.residual`) and the cohesive traction is
:attr:`cohesim.step.StepResult.traction`, both kept in the step table, so an
audit of every step makes no law pass, samples no load and makes no sparse
product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import DiscreteOperators
from .evolution import KKT_COLUMNS, StepColumns, TrajectoryRecord
from .law import CohesiveLaw

__all__ = [
    "EnergyLedger",
    "KKTReport",
    "TractionField",
    "energy_ledger",
    "kkt_report",
    "traction_extraction",
]


@dataclass
class EnergyLedger(StepColumns):
    """Energy bookkeeping of one trajectory: the residuals ``R`` and
    ``R_split`` over steps 0..n, next to the step table they are computed
    from (``ledger.E``, ``ledger.D_cum``, ... read its columns)."""

    steps: np.ndarray
    R: np.ndarray
    R_split: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.abs(self.R).max())

    @property
    def max_split_gap(self) -> float:
        return float(np.abs(self.R - self.R_split).max())


def energy_ledger(traj: TrajectoryRecord) -> EnergyLedger:
    """Assemble both energy-balance residual families from the recording."""
    total0 = traj.E[0] + traj.Psi[0] + traj.K[0]
    R = (traj.E + traj.Psi + traj.K) - total0 - traj.P_cum + traj.D_cum
    # split form: stored energies plus explicitly booked interface dissipation
    diss_increments = np.zeros_like(traj.Psi_d)
    diss_increments[1:] = np.diff(traj.Psi_d)
    diss_cum = np.cumsum(diss_increments)
    stored0 = traj.E[0] + traj.Psi_s[0] + traj.K[0]
    R_split = ((traj.E + traj.Psi_s + traj.K) - stored0
               - traj.P_cum + traj.D_cum + diss_cum)
    return EnergyLedger(traj.steps, R, R_split)


@dataclass
class KKTReport(StepColumns):
    """Max violations per step of the three discrete complementarity
    conditions, the history slope bound and the history's monotonicity: a
    view of the step table's four KKT columns, which ``kkt.csv`` writes.

    ``admissibility``, ``complementarity``, ``slope`` and ``xi_monotone`` are
    ``max(0, |[u_k]| - xi_k)``, ``max |(xi_k - xi_{k-1})(|[u_k]| - xi_k)|``,
    ``max(0, |xi_k - xi_{k-1}| - |[u_k] - [u_{k-1}]|)`` and ``max(0, xi_{k-1} - xi_k)``.
    """

    steps: np.ndarray

    @property
    def max_violation(self) -> float:
        # np.max, unlike Python's max, lets a NaN through
        return float(np.max([self.steps[name].max() for name in KKT_COLUMNS]))


def kkt_report(traj: TrajectoryRecord) -> KKTReport:
    return KKTReport(traj.steps)


@dataclass
class TractionField:
    """Nodal interface tractions recovered from the bulk residual."""

    sigma_plus: np.ndarray
    sigma_minus: np.ndarray
    cohesive: np.ndarray             # dpsi_dw([u]_j, xi_j)
    transmission_defect: np.ndarray  # |sigma_plus - sigma_minus|
    cohesive_defect: np.ndarray      # |sigma_plus - cohesive|
    interior: np.ndarray             # the mesh's mask; endpoints of K excluded from checks
    bound: float                     # activation threshold psi_hat'(0)


def traction_extraction(ops: DiscreteOperators, law: CohesiveLaw, residual: np.ndarray,
                        cohesive: np.ndarray) -> TractionField:
    """Discrete Neumann extraction of ``sigma nu`` on both sides of K.

    ``residual`` is the bulk residual at the pairs' plus and minus nodes
    (:attr:`~cohesim.assembly.DiscreteOperators.pair_index`), the step's
    :attr:`~cohesim.step.StepResult.residual`, a ``(2, n_pairs)`` array;
    ``cohesive`` is ``dpsi_dw([u_k], xi_k)``, the step's
    :attr:`~cohesim.step.StepResult.traction`.  Stacked over steps, as a
    ``(2, n_steps, n_pairs)`` array, ``residual[0]``, ``residual[1]`` and
    ``cohesive`` have one row per step, and so have the fields returned;
    ``interior`` stays the mesh's mask.
    """
    w = ops.weights
    sigma_plus = -residual[0] / w
    sigma_minus = residual[1] / w
    return TractionField(
        sigma_plus=sigma_plus,
        sigma_minus=sigma_minus,
        cohesive=cohesive,
        transmission_defect=np.abs(sigma_plus - sigma_minus),
        cohesive_defect=np.abs(sigma_plus - cohesive),
        interior=ops.mesh.interface_interior,
        bound=law.psi_prime_0,
    )
