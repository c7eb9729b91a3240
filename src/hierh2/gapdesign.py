"""Optimality-gap quantification and clustering-set design.

J1* is the standard H2 optimum, read off the two-Riccati solution.  The gap
between the hierarchical optimum J2* and J1* is bounded by projection
defects xi_u, xi_y of the spectral-factor gains, weighted by H-infinity
constants; minimizing them over the clustering sets is a weighted k-means
problem on the rows of the embeddings F_hat Phi_u^{1/2} and
L_hat' Phi_y^{1/2}.  The model-matching value at the factors' optimizer Q*
equals J1* and is kept as its test oracle.

The bound machinery requires the Youla data to be built from
projection-structured gains (P_u^T F2, L2 P_y): with those gains the
constrained problem over the same T is exactly the hierarchical problem.
:func:`evaluate_partition` assembles the whole chain correctly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DegenerateData
from .linalg import (h2_norm, hinf_norm, riccati_from_hamiltonian, solve_are,
                     solve_lyapunov, sqrt_psd, symmetrize)
from .plant import GeneralizedPlant, lft_lower
from .projection import (ClusterPartition, ProjectionPair, WeightVectors,
                         build_projection)
from .statespace import StateSpace, add, neg, series
from .synthesis import (SynthesisResult, YoulaData, synthesize_hierarchical,
                        synthesize_unconstrained, youla_data)

__all__ = [
    "SpectralFactors", "GapReport", "GapSweepRow", "spectral_factors",
    "gap_report", "design_clusters", "monotone_gap_sweep",
    "evaluate_partition", "weighted_kmeans", "reference_youla_data",
    "structured_youla_data",
]


# ---------------------------------------------------------------------------
# Spectral factors and Q*
# ---------------------------------------------------------------------------

@dataclass
class SpectralFactors:
    """Factor systems and gains solving the unconstrained model matching.

    Q* = -W_L Wbar_R = -Wbar_L W_R; both four factors are internally stable
    2n-state realizations and the two products agree as transfer matrices.
    The embeddings F_hat LYAP(A_F, I)^{1/2} and L_hat' LYAP(A_L', I)^{1/2}
    feed both the gap defects and the cluster design; Q* is the test oracle
    of J1* only.
    """

    w_l: StateSpace
    wbar_l: StateSpace
    w_r: StateSpace
    wbar_r: StateSpace
    fhat: np.ndarray
    lhat: np.ndarray
    xhat: np.ndarray
    yhat: np.ndarray
    embed_u: np.ndarray
    embed_y: np.ndarray
    q_star: StateSpace


def spectral_factors(yd: YoulaData, d12, d21,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralFactors:
    """Solve the two hat-system AREs and assemble the W factors and Q*.

    A_hat is Hurwitz by construction, so both AREs are well posed.  The hat
    system inherits structural cross terms from the nominal gains
    (D12' C1_hat = [R F, -R F] and B1_hat D21' = [0; L D21 D21']), so the
    gains solve the cross-term form of the two AREs; for F = L = 0 this
    reduces to the plain pair.  The returned Q* uses the stable product
    realization -W_L Wbar_R.
    """
    d12 = np.asarray(d12, float)
    d21 = np.asarray(d21, float)
    a_hat, b1_hat, b2_hat = yd.a_hat, yd.b1_hat, yd.b2_hat
    c1_hat, c2_hat = yd.c1_hat, yd.c2_hat
    n2 = a_hat.shape[0]

    r_u = symmetrize(d12.T @ d12)
    r_u_chol = sla.cho_factor(r_u)
    s_u = d12.T @ c1_hat
    a_u = a_hat - b2_hat @ sla.cho_solve(r_u_chol, s_u)
    q_u = symmetrize(c1_hat.T @ c1_hat - s_u.T @ sla.cho_solve(r_u_chol, s_u))
    m_u = b2_hat @ sla.cho_solve(r_u_chol, b2_hat.T)
    xhat = riccati_from_hamiltonian(a_u, m_u, q_u, tol).x
    fhat = -sla.cho_solve(r_u_chol, b2_hat.T @ xhat + s_u)

    r_y = symmetrize(d21 @ d21.T)
    r_y_chol = sla.cho_factor(r_y)
    s_y = b1_hat @ d21.T
    a_y = a_hat - s_y @ sla.cho_solve(r_y_chol, c2_hat)
    q_y = symmetrize(b1_hat @ b1_hat.T - s_y @ sla.cho_solve(r_y_chol, s_y.T))
    m_y = c2_hat.T @ sla.cho_solve(r_y_chol, c2_hat)
    yhat = riccati_from_hamiltonian(a_y.T, m_y, q_y, tol).x
    lhat = -sla.cho_solve(r_y_chol, (yhat @ c2_hat.T + s_y).T).T

    a_f = a_hat + b2_hat @ fhat
    a_l = a_hat + lhat @ c2_hat
    eye = np.eye(n2)
    phi_u = solve_lyapunov(a_f, eye, tol, check_hurwitz=False)
    phi_y = solve_lyapunov(a_l.T, eye, tol, check_hurwitz=False)
    nu = fhat.shape[0]
    ny = lhat.shape[1]
    w_l = StateSpace(a_f, eye, fhat, np.zeros((nu, n2)))
    wbar_l = StateSpace(a_f, b2_hat @ fhat, fhat, fhat)
    w_r = StateSpace(a_l, lhat, eye, np.zeros((n2, ny)))
    wbar_r = StateSpace(a_l, lhat, lhat @ c2_hat, lhat)
    q_star = neg(series(wbar_r, w_l))
    return SpectralFactors(w_l=w_l, wbar_l=wbar_l, w_r=w_r, wbar_r=wbar_r,
                           fhat=fhat, lhat=lhat, xhat=xhat, yhat=yhat,
                           embed_u=fhat @ sqrt_psd(phi_u, tol),
                           embed_y=lhat.T @ sqrt_psd(phi_y, tol),
                           q_star=q_star)


def model_matching_value(yd: YoulaData, q: StateSpace,
                         tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """||T11 + T12 Q T21||_H2 for a stable parameter Q; at Q = Q* it is
    the independent check of the two-Riccati J1*."""
    return h2_norm(add(yd.t11, series(yd.t21, q, yd.t12)), tol)


# ---------------------------------------------------------------------------
# Gap report
# ---------------------------------------------------------------------------

@dataclass
class GapReport:
    j1_star: float
    j2_star: float
    xi_u: float
    xi_y: float
    xi: float
    eps1: float
    eps2: float
    bound_rhs: float

    @property
    def ratio(self) -> float:
        return self.j2_star / self.j1_star


def doubly_projected_controller(g: GeneralizedPlant, p: ProjectionPair,
                                tol: Tolerances = DEFAULT_TOLERANCES) -> StateSpace:
    """Observer controller of the P_u^T P_u / P_y^T P_y-weighted plant.

    The equivalence form of the constrained problem: its state-space
    solution coincides with the hierarchical optimal controller.  Singular
    projected weights are handled through pseudo-inverses.
    """
    bp = g.b2 @ (p.p_u.T @ p.p_u)
    rp = (p.p_u.T @ p.p_u) @ g.d12.T @ g.d12 @ (p.p_u.T @ p.p_u)
    rp_pinv = np.linalg.pinv(symmetrize(rp))
    m = bp @ rp_pinv @ bp.T
    x = riccati_from_hamiltonian(g.a, m, g.c1.T @ g.c1, tol).x
    f_brev = -rp_pinv @ bp.T @ x
    cp = (p.p_y.T @ p.p_y) @ g.c2
    rp = (p.p_y.T @ p.p_y) @ g.d21 @ g.d21.T @ (p.p_y.T @ p.p_y)
    rp_pinv = np.linalg.pinv(symmetrize(rp))
    m = cp.T @ rp_pinv @ cp
    y = riccati_from_hamiltonian(g.a.T, m, g.b1 @ g.b1.T, tol).x
    l_brev = -y @ cp.T @ rp_pinv
    return StateSpace(g.a + bp @ f_brev + l_brev @ cp, -l_brev, f_brev,
                      np.zeros((g.n_u, g.n_y)))


def gap_report(yd: YoulaData, sf: SpectralFactors, p: ProjectionPair,
               g: GeneralizedPlant, hier: SynthesisResult | None = None,
               xi_formula: str = "printed", verify_equivalence: bool = True,
               tol: Tolerances = DEFAULT_TOLERANCES) -> GapReport:
    """Quantify the gap between hierarchical and unconstrained optima.

    J1* is the two-Riccati optimum ``synthesize_unconstrained(g).h2_value``.
    xi_u, xi_y measure the parts of the factor-gain embeddings
    (``sf.embed_u``, ``sf.embed_y``) outside the projection ranges; eps1,
    eps2 are the H-infinity weights and
    bound_rhs = sqrt(J1*^2 + 2 xi J1* + xi^2) upper-bounds J2*.  The Youla
    data must carry projection-structured gains for the bound to be
    guaranteed (see :func:`evaluate_partition`).

    xi_formula 'printed' uses eps1 xi_u + 2 eps2 xi_y; 'symmetric' is a
    labeled experimental alternative eps1 xi_u + eps2 xi_y +
    min(eps1, eps2) sqrt(xi_u xi_y).
    """
    if xi_formula not in ("printed", "symmetric"):
        raise ValueError(f"unknown xi_formula {xi_formula!r}")
    qu = np.eye(p.n_u) - p.p_u.T @ p.p_u
    qy = np.eye(p.n_y) - p.p_y.T @ p.p_y
    xi_u = float(np.linalg.norm(qu @ sf.embed_u, "fro"))
    xi_y = float(np.linalg.norm(qy @ sf.embed_y, "fro"))

    t12_t21 = hinf_norm(yd.t12, tol) * hinf_norm(yd.t21, tol)
    eps1 = t12_t21 * hinf_norm(sf.wbar_r, tol)
    eps2 = t12_t21 * hinf_norm(sf.wbar_l, tol)
    if xi_formula == "printed":
        xi = eps1 * xi_u + 2.0 * eps2 * xi_y
    else:
        xi = eps1 * xi_u + eps2 * xi_y + min(eps1, eps2) * np.sqrt(xi_u * xi_y)

    j1 = synthesize_unconstrained(g, tol=tol).h2_value
    if hier is None:
        hier = synthesize_hierarchical(g, p, tol=tol)
    j2 = hier.h2_value
    bound_rhs = float(np.sqrt(j1 * j1 + 2.0 * xi * j1 + xi * xi))

    if verify_equivalence:
        k_equiv = doubly_projected_controller(g, p, tol)
        h2_equiv = h2_norm(lft_lower(g, k_equiv), tol)
        if abs(h2_equiv - j2) > 1e-6 * max(1.0, j2):
            warnings.warn(
                f"equivalence-form controller value {h2_equiv:.9g} differs "
                f"from hierarchical optimum {j2:.9g}")

    return GapReport(j1_star=j1, j2_star=j2, xi_u=xi_u, xi_y=xi_y, xi=float(xi),
                     eps1=float(eps1), eps2=float(eps2), bound_rhs=bound_rhs)


# ---------------------------------------------------------------------------
# Youla-data conveniences
# ---------------------------------------------------------------------------

def structured_youla_data(g: GeneralizedPlant, p: ProjectionPair,
                          hier: SynthesisResult | None = None,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[YoulaData, SynthesisResult]:
    """Youla data with the projection-structured gains P_u^T F2, L2 P_y."""
    if hier is None:
        hier = synthesize_hierarchical(g, p, tol=tol)
    yd = youla_data(g, f=hier.p_u_t_f2(), l=hier.l2_p_y(), tol=tol)
    return yd, hier


def reference_youla_data(g: GeneralizedPlant,
                         tol: Tolerances = DEFAULT_TOLERANCES) -> YoulaData:
    """Design-phase Youla data from unit-weight LQR/Kalman gains.

    The optimal H2 gains make the factor gain F_hat vanish identically and
    would feed the clustering step zero rows, so the design phase uses the
    neutral Q = R = I regulator/filter pair instead.
    """
    x = solve_are(g.a, g.b2, np.eye(g.n), np.eye(g.n_u), tol,
                  check_stabilizable=False).x
    y = solve_are(g.a.T, g.c2.T, np.eye(g.n), np.eye(g.n_y), tol,
                  check_stabilizable=False).x
    f = -g.b2.T @ x
    l = -y @ g.c2.T
    return youla_data(g, f=f, l=l, tol=tol)


def evaluate_partition(g: GeneralizedPlant, partition: ClusterPartition,
                       weights: WeightVectors | None = None,
                       xi_formula: str = "printed",
                       tol: Tolerances = DEFAULT_TOLERANCES) -> GapReport:
    """Full gap pipeline for one partition: projections, structured Youla
    data, spectral factors, and the gap-bound report."""
    if weights is None:
        weights = WeightVectors.ones(partition.n_u, partition.n_y)
    p = build_projection(partition, weights)
    hier = synthesize_hierarchical(g, p, tol=tol)
    yd, _ = structured_youla_data(g, p, hier, tol)
    sf = spectral_factors(yd, g.d12, g.d21, tol)
    return gap_report(yd, sf, p, g, hier=hier, xi_formula=xi_formula, tol=tol)


# ---------------------------------------------------------------------------
# Weighted k-means
# ---------------------------------------------------------------------------

def _wcss(x, w, labels, centers):
    d = x - centers[labels]
    return float(np.sum(w * np.einsum("ij,ij->i", d, d)))


def _kmeanspp_seed(x, w, r, rng):
    n = x.shape[0]
    centers = np.empty((r, x.shape[1]))
    probs = w / w.sum()
    centers[0] = x[rng.choice(n, p=probs)]
    d2 = np.einsum("ij,ij->i", x - centers[0], x - centers[0])
    for i in range(1, r):
        scores = w * d2
        total = scores.sum()
        if total <= 0:
            centers[i] = x[rng.integers(n)]
        else:
            centers[i] = x[rng.choice(n, p=scores / total)]
        dnew = np.einsum("ij,ij->i", x - centers[i], x - centers[i])
        d2 = np.minimum(d2, dnew)
    return centers


def _lloyd(x, w, r, rng, max_iter, rel_tol):
    n = x.shape[0]
    centers = _kmeanspp_seed(x, w, r, rng)
    prev = np.inf
    labels = np.zeros(n, int)
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        # repair empty clusters by splitting the highest-inertia cluster
        for cl in range(r):
            if np.any(labels == cl):
                continue
            inertia = np.bincount(labels, weights=w * d2[np.arange(n), labels],
                                  minlength=r)
            donor = int(np.argmax(inertia))
            members = np.where(labels == donor)[0]
            far = members[np.argmax(d2[members, donor])]
            labels[far] = cl
            centers[cl] = x[far]
        for cl in range(r):
            sel = labels == cl
            wsum = w[sel].sum()
            centers[cl] = (w[sel, None] * x[sel]).sum(axis=0) / wsum
        obj = _wcss(x, w, labels, centers)
        if obj > prev * (1.0 + 1e-12) + 1e-15:
            raise AssertionError(
                f"Lloyd objective increased: {prev:.6e} -> {obj:.6e}")
        if prev - obj <= rel_tol * max(prev, 1e-300):
            prev = obj
            break
        prev = obj
    return labels, centers, prev


def weighted_kmeans(x: np.ndarray, weights: np.ndarray, r: int, rng=None,
                    restarts: int = 10, max_iter: int = 300,
                    rel_tol: float = 1e-9):
    """Weighted Lloyd iteration with k-means++ seeding.

    Points are rows of `x` with non-negative masses `weights`; the best of
    `restarts` independent runs (lowest weighted within-cluster sum of
    squares) is returned as (labels, centers, objective).  The objective is
    asserted non-increasing across iterations.  Raises DegenerateData when
    fewer than r distinct rows exist.
    """
    rng = np.random.default_rng(rng)
    x = np.asarray(x, float)
    weights = np.asarray(weights, float).ravel()
    if x.ndim != 2 or weights.shape[0] != x.shape[0]:
        raise ValueError("x must be (n, d) with one weight per row")
    if not np.all(np.isfinite(x)):
        raise ValueError("clustering data must be finite")
    if np.unique(x, axis=0).shape[0] < r:
        raise DegenerateData(f"fewer than {r} distinct rows")
    best = None
    for _ in range(max(restarts, 1)):
        labels, centers, obj = _lloyd(x, weights, r, rng, max_iter, rel_tol)
        if best is None or obj < best[2]:
            best = (labels, centers, obj)
    return best


def _labels_to_sets(labels, r) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i) for i in np.where(labels == cl)[0])
                 for cl in range(r))


def _align_labels(ref_labels, other_labels, r):
    """Greedy relabeling of `other` to maximize overlap with `ref`."""
    overlap = np.zeros((r, r))
    for a, b in zip(ref_labels, other_labels):
        overlap[b, a] += 1
    mapping = -np.ones(r, int)
    used = set()
    for _ in range(r):
        b, a = np.unravel_index(np.argmax(overlap), overlap.shape)
        mapping[b] = a
        overlap[b, :] = -1
        overlap[:, a] = -1
        used.add(a)
    return np.array([mapping[b] for b in other_labels])


def design_clusters(sf: SpectralFactors, weights: WeightVectors, r: int,
                    rng=None, restarts: int = 10) -> ClusterPartition:
    """Clustering sets from weighted k-means on the factor-gain embeddings.

    Inputs are clustered on the rows of sf.embed_u with masses w_u[i]^2,
    outputs on the rows of sf.embed_y with masses w_y[i]^2.
    When the channel counts agree (one input and output per subsystem) the
    output labels are aligned to the input clustering by maximum overlap and
    the common grouping is recorded as the subsystem partition.
    """
    rng = np.random.default_rng(rng)
    data_u, data_y = sf.embed_u, sf.embed_y
    if r > min(data_u.shape[0], data_y.shape[0]):
        raise ValueError("r exceeds the number of inputs or outputs")
    labels_u, _, _ = weighted_kmeans(data_u, weights.w_u ** 2, r, rng, restarts)
    labels_y, _, _ = weighted_kmeans(data_y, weights.w_y ** 2, r, rng, restarts)
    if data_u.shape[0] == data_y.shape[0]:
        labels_y = _align_labels(labels_u, labels_y, r)
        subsystem_sets = _labels_to_sets(labels_u, r)
    else:
        subsystem_sets = None
    return ClusterPartition(
        input_sets=_labels_to_sets(labels_u, r),
        output_sets=_labels_to_sets(labels_y, r),
        subsystem_sets=subsystem_sets)


@dataclass
class GapSweepRow:
    r: int
    partition: ClusterPartition
    report: GapReport


def monotone_gap_sweep(g: GeneralizedPlant, sf: SpectralFactors,
                       weights: WeightVectors, r_list, rng=None,
                       restarts: int = 10,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> list[GapSweepRow]:
    """Design clusters and produce a gap report for each r in ascending order."""
    r_list = list(r_list)
    if r_list != sorted(r_list):
        raise ValueError("r_list must be ascending")
    rng = np.random.default_rng(rng)
    rows = []
    for r in r_list:
        partition = design_clusters(sf, weights, r, rng, restarts)
        report = evaluate_partition(g, partition, weights, tol=tol)
        rows.append(GapSweepRow(r=r, partition=partition, report=report))
    return rows
