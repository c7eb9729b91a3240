"""hierh2: hierarchical H2 synthesis for networked systems.

Structured input/output projections turn the constrained networked H2
problem into a convex low-order design; Hamiltonian eigenspace truncation
approximates the underlying Riccati solutions with computable error bounds;
weighted k-means designs the clustering sets to tighten the gap to
unconstrained performance.
"""

__version__ = "0.1.0"

from .config import DEFAULT_TOLERANCES, STRICT_TOLERANCES, Tolerances, tolerance_profile
from .statespace import StateSpace, add, neg, series, transpose_dual
from .linalg import (AreSolution, StableSubspace, detectable, h2_norm,
                     hinf_norm, riccati_from_hamiltonian, solve_are,
                     solve_lyapunov, spectral_abscissa, sqrt_psd,
                     stabilizable, stable_eigenspace, unstable_eigenbases)
from .plant import (AssumptionReport, GeneralizedPlant, NetworkSpec,
                    Subsystem, generate_consensus_network, lft_lower,
                    validate_assumptions)
from .projection import (ClusterPartition, ProjectionPair, WeightVectors,
                         build_projection, feasible_weights,
                         subspace_member, verify_qi)
from .hamiltonian import (ApproxAreSolution, HamiltonianSystem, approx_are,
                          build_hamiltonian, cauchy_coefficients, error_bound,
                          exact_error_norm, stability_test)
from .synthesis import (HierarchicalController, LinkCount, SynthesisResult,
                        YoulaData, communication_links,
                        synthesize_hierarchical, synthesize_unconstrained,
                        youla_data)
from .gapdesign import (GapReport, GapSweepRow, SpectralFactors,
                        design_clusters, doubly_projected_controller,
                        evaluate_partition, gap_report, model_matching_value,
                        monotone_gap_sweep, reference_youla_data,
                        spectral_factors, weighted_kmeans)
from .simulate import (SimResult, SimTrace, privacy_audit,
                       run_hier_simulation)
from .sweeps import ExperimentConfig, sweep_kappa, sweep_r, sweep_size
from . import errors
