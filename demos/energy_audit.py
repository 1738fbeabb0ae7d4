"""Run the standard ramp scenario and audit its energy bookkeeping.

The ramp pulls the two bodies apart with an antisymmetric bulk load until
most interface nodes soften.  Afterwards we check the discrete energy
balance

    [E + Psi + K](t) - [E + Psi + K](0)  =  work done - viscous dissipation

whose residual is pure time-discretization error, and confirm the
complementarity conditions hold to machine precision.

Run:  python3 demos/energy_audit.py
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
    kkt_report,
    run,
)

mesh = build_rectangle_mesh(1.0, 16, 8)
materials = Materials.constant(rho=1.0, mu=1.0, eta=1.0)
law = CohesiveLaw(PrototypeEnvelope(g_c=1.0, xi_c=0.2))
T, n = 1.0, 200
loads = LoadModel.from_functions(
    mesh, T, bulk=lambda x, y, t: 100.0 * t * np.sin(np.pi * x) * y)

scenario = Scenario(mesh, materials, law, loads, T, n,
                    u0=np.zeros(mesh.n_nodes), v0=np.zeros(mesh.n_nodes),
                    xi0=np.zeros(mesh.n_pairs), eps_bar=1e-3)
record = run(scenario)

led = energy_ledger(record)
rep = kkt_report(record)

print(f"{'t':>6} {'elastic':>9} {'kinetic':>9} {'interface':>10} "
      f"{'work':>9} {'viscous':>9} {'residual':>10}")
for k in range(0, n + 1, 25):
    print(f"{led.ts[k]:6.3f} {led.E[k]:9.4f} {led.K[k]:9.4f} {led.Psi[k]:10.4f} "
          f"{led.P_cum[k]:9.4f} {led.D_cum[k]:9.4f} {led.R[k]:10.2e}")

print()
print(f"max |energy residual|     : {led.max_residual:.3e}  (O(tau), halves with tau)")
print(f"split-form agreement      : {led.max_split_gap:.3e}")
print(f"max KKT violation         : {rep.max_violation:.3e}")
print(f"interface nodes softened  : {(record.xis[-1] > 1.2e-3).sum()} / {mesh.n_pairs}")
print(f"largest opening reached   : {record.xis[-1].max():.4f}  (xi_c = {law.xi_c})")
