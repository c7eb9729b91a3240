"""Three-step hierarchical execution of a projected controller.

The controller K = P_u^T K~ P_y runs as an explicit message schedule per
integration stage: coordinators average their cluster outputs (ybar = P_y y),
exchange the averages and advance the shared low-order law
(ubar from K~), then broadcast scaled controls back (u = P_u^T ubar).  The
staged evaluation computes exactly the joint closed-loop vector field of
v = [x; x_K], so a monolithic simulation of the assembled LFT must agree
with it to roundoff; the mismatch is checked on every sample of every run.
With the disturbance held over a step, the field of the LFT is linear, and
its classical RK4 step is the fixed map v+ = Phi v + Gamma w, the truncated
Taylor series of the matrix exponential (Moler & Van Loan, SIAM Review
2003).  The monolithic check is stepped by that map, built once per run.
The products of the held disturbance (B1 w, D21 w, Gamma w) and the
regulated output z are formed a block of samples at a time, as one matrix
product each.  Coordinator logs record which raw signals each coordinator
actually reads and writes (the supports of its P_y and P_u rows),
supporting the structural privacy and link audits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (DimensionMismatch, NumericalError, PreconditionError,
                     UnstableClosedLoop)
from .plant import GeneralizedPlant, lft_lower
from .projection import ClusterPartition
from .synthesis import HierarchicalController

__all__ = ["SimTrace", "SimResult", "run_hier_simulation", "privacy_audit",
           "noise_disturbance"]

# Module constants, not Tolerances fields, like gapdesign._EQUIVALENCE_REL:
# the tolerance profiles tune the numerical kernels, while these two bound
# what a correct run must show, and the acceptance criteria, the README and
# the CLI's exit codes quote them.  The staged and monolithic runs are one
# RK4 map evaluated in two orders, so they part by roundoff only (about
# 1e-15 relative on the benchmark instance).
_STAGED_MATCH_RTOL = 1e-9
# a plant state this many times its initial scale (at least 1) means the
# integration has blown up
_DIVERGENCE_FACTOR = 1e6
# Samples whose held products are formed by one matrix product.  A module
# constant, not an option or a Tolerances field: it trades speed against
# memory and leaves the results equal to the per-sample products up to
# roundoff.  Products over the whole horizon were no faster and raised the
# peak memory of the n = 200 benchmark run by a fifth.
_BLOCK = 128


@dataclass
class CoordinatorLog:
    """Structural record of everything one coordinator observed."""

    cluster_outputs: tuple[int, ...]   # raw measurement indices it may read
    cluster_inputs: tuple[int, ...]    # control channels it may broadcast to
    raw_outputs_seen: set = field(default_factory=set)  # support of P_y row
    inputs_written: set = field(default_factory=set)    # support of P_u row


@dataclass
class SimTrace:
    """What the coordinators exchanged: per-sample averages and
    low-dimensional controls, each coordinator's log, and link usage.  The
    sample times and broadcast controls are ``SimResult.times`` and ``.u``."""

    ybar: np.ndarray                   # (samples, r) averaged outputs
    ubar: np.ndarray                   # (samples, r) low-dimensional controls
    coordinator_logs: list
    link_usage: dict                   # edge -> use count

    @property
    def links_used(self) -> int:
        return sum(1 for v in self.link_usage.values() if v > 0)


@dataclass
class SimResult:
    """Signals at the samples t_k = k dt as the staged schedule evaluated
    them, its trace, and the largest deviation from the monolithic run."""

    times: np.ndarray
    x: np.ndarray                      # plant states (samples, n)
    xk: np.ndarray                     # controller states (samples, n_k)
    y: np.ndarray
    z: np.ndarray
    u: np.ndarray                      # broadcast controls (samples, n_u)
    trace: SimTrace
    staged_vs_monolithic: float        # max relative state deviation


def noise_disturbance(seed: int, scale: float = 1.0):
    """Zero-order-hold standard normal disturbance, seeded."""
    return ("noise", seed, scale)


def _coordinator_layout(controller, partition: ClusterPartition | None):
    """One log per coordinator: the declared cluster (the partition's, or by
    default the supports of the projection rows) and what the staged
    schedule actually reads and writes, the supports of its P_y and P_u
    rows."""
    logs = []
    for i in range(controller.p_u.shape[0]):
        reads = tuple(int(j) for j in np.nonzero(controller.p_y[i])[0])
        writes = tuple(int(j) for j in np.nonzero(controller.p_u[i])[0])
        if partition is None:
            outs, ins = reads, writes
        else:
            outs = tuple(partition.output_sets[i])
            ins = tuple(partition.input_sets[i])
        logs.append(CoordinatorLog(cluster_outputs=outs, cluster_inputs=ins,
                                   raw_outputs_seen=set(reads),
                                   inputs_written=set(writes)))
    return logs


def _rk4(field, v, k1, dt):
    """One classical RK4 step of dv/dt = field(v), given k1 = field(v)."""
    k2 = field(v + 0.5 * dt * k1)
    k3 = field(v + 0.5 * dt * k2)
    k4 = field(v + dt * k3)
    return v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def _rk4_transition(a, b, dt):
    """The classical RK4 step of dv/dt = A v + B w with w held, as the map
    v+ = Phi v + Gamma w.  With M = dt A and P = I + M/2 + M^2/6 + M^3/24,
    Phi = I + M P and Gamma = dt P B."""
    diag = slice(None, None, a.shape[0] + 1)    # the diagonal of a flat view
    m = dt * a
    # Horner's rule, P = I + M(I/2 + M(I/6 + M/24)), adding each multiple
    # of I on the diagonal in place
    p = m / 24.0
    for c in (1.0 / 6.0, 0.5):
        p.flat[diag] += c
        p = m @ p
    p.flat[diag] += 1.0
    phi = m @ p
    phi.flat[diag] += 1.0
    return phi, dt * (p @ b)


def _monolithic_step(g, controller, dt, tol):
    """The step and the RK4 transition matrices (Phi, Gamma) of the
    assembled loop lft_lower(G, P_u^T K~ P_y), after checking that the loop
    is Hurwitz and the step resolves its fastest mode; a step of None is
    half the resolution limit.  The assembled loop is not kept."""
    closed = lft_lower(g, controller.expand())
    eigs = np.linalg.eigvals(closed.a)
    limit = 0.1 / max(float(np.max(np.abs(eigs))), 1e-12)
    if dt is None:
        dt = 0.5 * limit
    if not 0.0 < dt <= limit:
        raise PreconditionError(
            f"dt={dt:.3e} must lie in (0, {limit:.3e}], the resolution limit")
    if np.max(eigs.real) >= -tol.hurwitz_margin:
        raise UnstableClosedLoop("closed loop is not Hurwitz")
    return (dt, *_rk4_transition(closed.a, closed.b, dt))


def run_hier_simulation(g: GeneralizedPlant, controller: HierarchicalController,
                        horizon: float, dt: float | None = None,
                        disturbance=("impulse", 0),
                        partition: ClusterPartition | None = None,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> SimResult:
    """Simulate the closed loop with the staged three-step controller.

    Fixed-step classical RK4 on the joint state v = [x; x_K].  The
    disturbance w is held over each step.  Each RK4 stage runs the schedule
    (average, law, broadcast); the first stage is the sample-point
    evaluation that also yields the recorded y, ybar, ubar and u.  ``dt``
    must lie in (0, 0.1 / |lambda_max|] to resolve the fastest closed-loop
    mode; by default it is half that limit.  The monolithic loop
    lft_lower(G, P_u^T K~ P_y) runs alongside, stepped by the transition
    matrix of the same RK4 map, v+ = Phi v + Gamma w, which is built once;
    its relative deviation from v must stay within 1e-9 on every sample.
    B1 w, D21 w and Gamma w are formed for a block of samples by one matrix
    product each, and so is z = C1 x + D12 u once a block is done.

    ``partition`` declares each coordinator's cluster, which the privacy
    audit checks the reads against.  Without it, each coordinator's cluster
    is taken to be what it reads, so ``privacy_audit`` of the trace holds
    by construction and shows nothing.

    Raises PreconditionError for a dt that is not finite, not positive or
    above the limit, a horizon that is not finite or negative, or a
    partition whose cluster count or channel counts differ from the
    controller's and the plant's;
    UnstableClosedLoop when the closed loop has an eigenvalue with
    Re >= -hurwitz_margin or the plant-state norm exceeds 1e6 times its
    initial scale; NumericalError when the deviation exceeds 1e-9.
    """
    if not 0.0 <= horizon < np.inf:
        raise PreconditionError(
            f"horizon={horizon} must be finite and non-negative")
    r = controller.p_u.shape[0]
    if partition is not None and (partition.r, partition.n_u, partition.n_y) \
            != (r, g.n_u, g.n_y):
        raise DimensionMismatch(
            f"partition has r={partition.r}, n_u={partition.n_u}, "
            f"n_y={partition.n_y}; the controller and plant have r={r}, "
            f"n_u={g.n_u}, n_y={g.n_y}")
    dt, phi, gamma = _monolithic_step(g, controller, dt, tol)

    n, nk, m1 = g.n, controller.k_tilde.n_states, g.m1
    steps = int(np.ceil(horizon / dt))
    times = np.arange(steps + 1) * dt

    kind = disturbance[0]
    x_init = np.zeros(n)
    if kind == "impulse":
        channel = int(disturbance[1])
        if not 0 <= channel < m1:
            raise DimensionMismatch(
                f"impulse channel {channel} is outside [0, {m1})")
        w_path = np.zeros((steps + 1, m1))
        x_init = g.b1[:, channel].copy()
    elif kind == "noise":
        seed, scale = int(disturbance[1]), float(disturbance[2])
        w_path = scale * np.random.default_rng(seed).standard_normal(
            (steps + 1, m1))
    elif kind == "array":
        w_path = np.asarray(disturbance[1], float)
        if w_path.shape != (steps + 1, m1):
            raise ValueError("disturbance array must be (steps + 1, m1)")
    else:
        raise ValueError(f"unknown disturbance kind {kind!r}")

    p_u, p_y, kt = controller.p_u, controller.p_y, controller.k_tilde
    logs = _coordinator_layout(controller, partition)

    # map channels to owning subsystems so links are counted per subsystem
    out_owner = {int(j): s for s, sub in enumerate(g.subsystems)
                 for j in sub.outputs}
    in_owner = {int(j): s for s, sub in enumerate(g.subsystems)
                for j in sub.inputs}

    # every read, write and coordinator exchange happens once per sample,
    # so a link's use count is its multiplicity in those lists times the
    # number of samples
    links = Counter()
    for i, log in enumerate(logs):
        links.update(("sub", out_owner.get(j, j), "coord", i)
                     for j in sorted(log.raw_outputs_seen))
        links.update(("sub", in_owner.get(j, j), "coord", i)
                     for j in sorted(log.inputs_written))
    links.update(("coord", i, "coord", j)
                 for i in range(r) for j in range(i + 1, r))
    link_usage = {key: count * len(times) for key, count in links.items()}

    # the staged field reads the held products b1w and d21w of the current
    # sample, which the loop below rebinds once per sample
    def staged(v):
        """The joint vector field through the schedule, and its signals."""
        x, xk = v[:n], v[n:]
        y = g.c2 @ x + d21w
        ybar = p_y @ y                      # step 1: output averaging
        dxk = kt.a @ xk + kt.b @ ybar       # step 2: low-dimensional law
        ubar = kt.c @ xk + kt.d @ ybar
        u = p_u.T @ ubar                    # step 3: control inversion
        dx = g.a @ x + b1w + g.b2 @ u
        return np.concatenate([dx, dxk]), (y, ybar, ubar, u)

    def staged_dv(v):
        return staged(v)[0]

    v = np.concatenate([x_init, np.zeros(nk)])
    v_mono = v.copy()

    xs, xks, ys, zs, us, ybars, ubars = (
        np.empty((steps + 1, d)) for d in (n, nk, g.n_y, g.p1, g.n_u, r, r))

    guard = _DIVERGENCE_FACTOR * max(1.0, np.linalg.norm(x_init))
    max_rel = 0.0

    for start in range(0, steps + 1, _BLOCK):
        block = slice(start, min(start + _BLOCK, steps + 1))
        w_block = w_path[block]
        b1w_block, d21w_block, gw_block = (
            w_block @ g.b1.T, w_block @ g.d21.T, w_block @ gamma.T)
        for i, step in enumerate(range(block.start, block.stop)):
            b1w, d21w = b1w_block[i], d21w_block[i]
            dv, (y, ybar, ubar, u) = staged(v)
            x = v[:n]
            xs[step], xks[step], ys[step] = x, v[n:], y
            ybars[step], ubars[step], us[step] = ybar, ubar, u

            denom = max(1.0, float(np.linalg.norm(v_mono)))
            max_rel = max(max_rel, float(np.linalg.norm(v - v_mono)) / denom)

            if np.linalg.norm(x) > guard:
                raise UnstableClosedLoop(
                    f"trajectory norm exceeded {guard:.3e} "
                    f"at t={times[step]:.3f}")
            if step < steps:
                v = _rk4(staged_dv, v, dv, dt)
                v_mono = phi @ v_mono + gw_block[i]
        zs[block] = xs[block] @ g.c1.T + us[block] @ g.d12.T

    if max_rel > _STAGED_MATCH_RTOL:
        raise NumericalError(
            f"staged and monolithic simulations diverged: {max_rel:.3e}")

    trace = SimTrace(ybar=ybars, ubar=ubars, coordinator_logs=logs,
                     link_usage=link_usage)
    return SimResult(times=times, x=xs, xk=xks, y=ys, z=zs, u=us, trace=trace,
                     staged_vs_monolithic=max_rel)


def privacy_audit(trace: SimTrace) -> bool:
    """Structural check: no coordinator read raw outputs outside its cluster.

    Coordinators legitimately see every averaged entry of ybar; the raw
    measurements a coordinator reads (the support of its P_y row) must stay
    within its own cluster.  A write outside the cluster (the support of a
    P_u row) shows up as an extra link in ``links_used``.
    """
    for log in trace.coordinator_logs:
        if not set(log.raw_outputs_seen) <= set(log.cluster_outputs):
            return False
    return True
