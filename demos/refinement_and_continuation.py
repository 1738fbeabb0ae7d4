"""Two limit passages in one script.

First a time-step refinement: the energy-balance residual of the implicit
scheme is first order, so halving tau halves the residual.  Then the
history-floor continuation: lowering the regularization floor eps produces a
Cauchy sequence of trajectories, which is how the unregularized problem
(floor -> 0) is approached.

Run:  python3 demos/refinement_and_continuation.py
"""

import numpy as np

from cohesim import (
    CohesiveLaw,
    LoadModel,
    Materials,
    PrototypeEnvelope,
    Scenario,
    build_rectangle_mesh,
    energy_ledger,
    run,
    trajectory_distance,
)

mesh = build_rectangle_mesh(1.0, 8, 4)
materials = Materials.constant(rho=1.0, mu=1.0, eta=1.0)
law = CohesiveLaw(PrototypeEnvelope(g_c=1.0, xi_c=0.2))


def scenario(n, eps=1e-3, T=1.0):
    loads = LoadModel.from_functions(
        mesh, T, bulk=lambda x, y, t: 100.0 * t * np.sin(np.pi * x) * y)
    return Scenario(mesh, materials, law, loads, T, n,
                    u0=np.zeros(mesh.n_nodes), v0=np.zeros(mesh.n_nodes),
                    xi0=np.zeros(mesh.n_pairs), eps_bar=eps)


print("time-step refinement (energy residual should halve):")
prev = None
for n in (120, 240, 480, 960):
    r = energy_ledger(run(scenario(n), snapshot_stride=n)).max_residual
    note = "" if prev is None else f"   observed order {np.log2(prev / r):.2f}"
    print(f"  n = {n:4d}   max |residual| = {r:.4e}{note}")
    prev = r

print()
print("history-floor continuation (trajectory distances should shrink):")
eps_list = [1e-1, 1e-2, 1e-3, 1e-4]
records = [run(scenario(120).with_eps(eps), snapshot_stride=1) for eps in eps_list]
for eps, rec in zip(eps_list, records):
    print(f"  eps = {eps:.0e}   final max opening = {rec.xis[-1].max():.5f}")
for a, b, ra, rb in zip(eps_list, eps_list[1:], records, records[1:]):
    print(f"  d(eps={a:.0e}, eps={b:.0e}) = {trajectory_distance(ra, rb):.4e}")
