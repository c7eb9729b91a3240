"""Truncated Riccati solutions from the Hamiltonian eigenspace.

The stabilizing solution comes from the full stable invariant subspace; on
a coherent network the closed loop has four slow regulated modes well
separated from the bulk, so keeping only the four smallest-magnitude
eigenpairs already reproduces the exact design.  The table below reports,
for each truncation order: the raw error, the computable a-priori bound on
the closed-loop-weighted error against its true value, the residue-based
stability certificate, and the closed-loop H2 ratio.
"""

import numpy as np

from hierh2 import (ClusterPartition, NetworkSpec, WeightVectors, approx_are,
                    build_hamiltonian, build_projection, error_bound,
                    exact_error_norm, generate_consensus_network, solve_are,
                    synthesize_hierarchical)
from hierh2.errors import ApproxNotStabilizing

spec = NetworkSpec.even_blocks(n_s=100, n_blocks=4, p_in=0.8, p_out=0.01,
                               a_lo=2.0, a_hi=3.0, seed=7)
g = generate_consensus_network(spec)
partition = ClusterPartition.from_subsystems(spec.planted_partition, g)
pair = build_projection(partition, WeightVectors.ones(g.n_u, g.n_y))

b2pu = g.b2 @ pair.p_u.T
r1 = pair.p_u @ g.d12.T @ g.d12 @ pair.p_u.T
hs = build_hamiltonian(g.a, b2pu, g.c1, r1)
x_exact = solve_are(g.a, b2pu, g.c1, r1).x
exact = synthesize_hierarchical(g, pair)

full = hs.full_subspace()
print("stable eigenvalue magnitudes (head):",
      np.round(np.abs(full.eigenvalues[:6]), 3))
print(f"\n{'kappa':>5} {'|X-Xbar|_F':>11} {'weighted err':>13} "
      f"{'bound':>10} {'cert':>5} {'h2 ratio':>9}")
for kappa in range(1, 7):
    sol = approx_are(hs, kappa=kappa)
    eps, bound = error_bound(sol, g.b1)
    err = exact_error_norm(x_exact, sol.xbar, g.a, hs.m, g.b1)
    try:
        res = synthesize_hierarchical(g, pair, are_backend="approx",
                                      kappa=kappa)
        ratio = f"{res.h2_value / exact.h2_value:9.6f}"
    except ApproxNotStabilizing:
        ratio = "      n/a"
    print(f"{sol.kappa:5d} {np.linalg.norm(x_exact - sol.xbar):11.4f} "
          f"{err:13.6f} {bound:10.4f} {str(sol.stabilizing):>5} {ratio}")

print("\nthe weighted error always sits below its bound, and the ratio"
      "\ncollapses to 1 once the four coherent modes are retained")
