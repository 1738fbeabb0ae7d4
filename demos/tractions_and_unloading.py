"""Interface tractions under a load-unload-reload history.

The scenario is chosen in the coercive regime (mu * c_hat > beta), so the
response is stable: nodes open and soften while the load rises, then the
history freezes and the traction moves up and down the same secant line
through the origin.  Tractions are recovered from each step's own bulk
residual (discrete Neumann extraction), which the record's step table keeps,
as ``cohesim run`` does, and compared against the cohesive law; the
transmission defect between the two bodies is machine-small.

Run:  python3 demos/tractions_and_unloading.py
"""

import numpy as np

from cohesim import (
    CohesiveLaw,
    LoadModel,
    Materials,
    PrototypeEnvelope,
    Scenario,
    assemble,
    build_rectangle_mesh,
    estimate_trace_constant,
    run,
    traction_extraction,
)

mesh = build_rectangle_mesh(1.0, 16, 8)
materials = Materials.constant(rho=0.1, mu=2.0, eta=4.0)
law = CohesiveLaw(PrototypeEnvelope(g_c=1.0, xi_c=2.0))

ops = assemble(mesh, materials)
c_hat = estimate_trace_constant(mesh, ops.A_unit)
print(f"coercivity: mu * c_hat = {materials.mu_min * c_hat:.3f} > beta = {law.beta}")


def profile(s):
    s = np.asarray(s, dtype=float)
    up = s / 0.4
    down = 1.0 + (s - 0.4) * (0.1 - 1.0) / 0.3
    re = 0.1 + (s - 0.7) * (0.3 - 0.1) / 0.3
    return np.where(s <= 0.4, up, np.where(s <= 0.7, down, re))


T, n = 1.0, 200
loads = LoadModel.from_functions(
    mesh, T,
    bulk=lambda x, y, t: 25.0 * profile(t / T) * np.sin(np.pi * x) * y)
scenario = Scenario(mesh, materials, law, loads, T, n,
                    u0=np.zeros(mesh.n_nodes), v0=np.zeros(mesh.n_nodes),
                    xi0=np.zeros(mesh.n_pairs), eps_bar=1e-3)
record = run(scenario, ops=ops)

mid = mesh.n_pairs // 2  # node nearest the center of the interface
print()
print(f"interface node {mid} (x = {mesh.nodes[mesh.interface_pairs[mid, 0], 0]:.2f}):")
print(f"{'t':>6} {'load':>6} {'jump':>9} {'xi':>9} {'sigma+':>9} "
      f"{'c_xi*jump':>10} {'transmission':>13}")
for k in range(20, n + 1, 20):
    cur = record.state(k)
    tf = traction_extraction(record.ops, law, record.residual[k], record.traction[k])
    line = law.frozen(cur.xi[mid]).c_xi * record.jumps[k][mid]
    print(f"{cur.t:6.2f} {profile(cur.t):6.2f} {record.jumps[k][mid]:9.5f} "
          f"{cur.xi[mid]:9.5f} {tf.sigma_plus[mid]:9.5f} {line:10.5f} "
          f"{tf.transmission_defect[mid]:13.2e}")

grow = (np.diff(record.xis, axis=0) > 0).any(axis=1)
print()
print(f"history last grew at step {int(np.nonzero(grow)[0].max()) + 1} of {n};")
print("afterwards the traction column equals the secant line c_xi * jump:")
print("the unloading and reloading branches coincide (no hysteresis inside")
print("the elastic domain).")
