"""Shared scenario builders for the test suite.

The "standard ramp" drives the 16x8 rectangle with the brittle prototype law
(threshold 10, beta = 50) into a mix of floor, softening and near-capped
interface nodes by t = 1.  The "unloading tent" uses a gentle law and an
overdamped material so the interface opens, freezes, and retraces its
elastic line when the load reverses.
"""

import numpy as np

from cohesim.assembly import LoadModel, Materials
from cohesim.evolution import Scenario
from cohesim.law import CohesiveLaw, PrototypeEnvelope
from cohesim.mesh import build_rectangle_mesh

RAMP_AMPLITUDE = 100.0


def ramp_bulk(x, y, t, amplitude=RAMP_AMPLITUDE):
    return amplitude * t * np.sin(np.pi * x) * y


def standard_ramp(n=200, n_x=16, n_y=8, eps_bar=1e-3, T=1.0, xi0=0.0,
                  regularity_mode=False, amplitude=RAMP_AMPLITUDE):
    """Ramp-loaded rectangle, prototype law G_c=1, xi_c=0.2, mu=rho=eta=1."""
    mesh = build_rectangle_mesh(1.0, n_x, n_y)
    materials = Materials.constant(rho=1.0, mu=1.0, eta=1.0)
    law = CohesiveLaw(PrototypeEnvelope(g_c=1.0, xi_c=0.2))
    loads = LoadModel.from_functions(
        mesh, T, bulk=lambda x, y, t: ramp_bulk(x, y, t, amplitude))
    w0 = np.zeros(mesh.n_nodes) if regularity_mode else None
    return Scenario(mesh, materials, law, loads, T, n,
                    u0=np.zeros(mesh.n_nodes), v0=np.zeros(mesh.n_nodes),
                    xi0=np.full(mesh.n_pairs, xi0), eps_bar=eps_bar,
                    regularity_mode=regularity_mode, w0=w0)


def tent_profile(s):
    """Load factor: ramp to 1 at s=0.4, down to 0.1 at s=0.7, back to 0.3."""
    s = np.asarray(s, dtype=float)
    up = s / 0.4
    down = 1.0 + (s - 0.4) * (0.1 - 1.0) / 0.3
    re = 0.1 + (s - 0.7) * (0.3 - 0.1) / 0.3
    return np.where(s <= 0.4, up, np.where(s <= 0.7, down, re))


def unloading_tent(n=200, n_x=16, n_y=8, eps_bar=1e-3, amplitude=25.0):
    """Load-unload-reload scenario in the coercive regime (mu c_hat > beta)."""
    mesh = build_rectangle_mesh(1.0, n_x, n_y)
    materials = Materials.constant(rho=0.1, mu=2.0, eta=4.0)
    law = CohesiveLaw(PrototypeEnvelope(g_c=1.0, xi_c=2.0))  # beta = 0.5
    T = 1.0
    loads = LoadModel.from_functions(
        mesh, T,
        bulk=lambda x, y, t: amplitude * tent_profile(t / T) * np.sin(np.pi * x) * y)
    return Scenario(mesh, materials, law, loads, T, n,
                    u0=np.zeros(mesh.n_nodes), v0=np.zeros(mesh.n_nodes),
                    xi0=np.zeros(mesh.n_pairs), eps_bar=eps_bar)


def rest_scenario(n=40, n_x=4, n_y=2, eps_bar=1e-3):
    """No load, zero initial data: the rest state is a fixed point."""
    mesh = build_rectangle_mesh(1.0, n_x, n_y)
    materials = Materials.constant(rho=1.0, mu=1.0, eta=1.0)
    law = CohesiveLaw(PrototypeEnvelope(g_c=1.0, xi_c=1.0))
    loads = LoadModel.from_functions(mesh, 1.0)
    return Scenario(mesh, materials, law, loads, 1.0, n,
                    u0=np.zeros(mesh.n_nodes), v0=np.zeros(mesh.n_nodes),
                    xi0=np.zeros(mesh.n_pairs), eps_bar=eps_bar)


def small_ramp(n=120, n_x=8, n_y=4, eps_bar=1e-3, amplitude=RAMP_AMPLITUDE,
               regularity_mode=False, xi0=0.0):
    """Smaller/faster variant of the standard ramp for unit tests.

    The brittle law (beta = 50) needs tau below eta c_hat / (beta - mu c_hat)
    = 1/99 for the algebraic convexity check, hence n >= 120 with T = 1.
    """
    return standard_ramp(n=n, n_x=n_x, n_y=n_y, eps_bar=eps_bar,
                         amplitude=amplitude, regularity_mode=regularity_mode,
                         xi0=xi0)


def mild_ramp(n=20, n_x=4, n_y=2, eps_bar=1e-3, amplitude=20.0, xi0=0.0,
              regularity_mode=False):
    """Ramp with the gentle law (beta = 2): convex for coarse time steps."""
    mesh = build_rectangle_mesh(1.0, n_x, n_y)
    materials = Materials.constant(rho=1.0, mu=1.0, eta=1.0)
    law = CohesiveLaw(PrototypeEnvelope(g_c=1.0, xi_c=1.0))
    T = 1.0
    loads = LoadModel.from_functions(
        mesh, T, bulk=lambda x, y, t: ramp_bulk(x, y, t, amplitude))
    w0 = np.zeros(mesh.n_nodes) if regularity_mode else None
    return Scenario(mesh, materials, law, loads, T, n,
                    u0=np.zeros(mesh.n_nodes), v0=np.zeros(mesh.n_nodes),
                    xi0=np.full(mesh.n_pairs, xi0), eps_bar=eps_bar,
                    regularity_mode=regularity_mode, w0=w0)
