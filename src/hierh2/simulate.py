"""Three-step hierarchical execution of a projected controller.

The controller K = P_u^T K~ P_y runs as an explicit message schedule per
integration step: coordinators average their cluster outputs (ybar = P_y y),
exchange the averages and advance the shared low-order law
(ubar from K~), then broadcast scaled controls back (u = P_u^T ubar).  The
staged evaluation computes exactly the joint closed-loop vector field, so a
monolithic simulation of the assembled LFT must agree to roundoff; the
mismatch is checked on every run.  Coordinator logs record which raw
signals each coordinator actually reads and writes (the supports of its
P_y and P_u rows), supporting the structural privacy and link audits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import UnstableClosedLoop
from .plant import GeneralizedPlant, lft_lower
from .projection import ClusterPartition
from .synthesis import HierarchicalController

__all__ = ["SimTrace", "SimResult", "run_hier_simulation", "privacy_audit",
           "impulse_disturbance", "noise_disturbance"]

_STAGED_MATCH_RTOL = 1e-9
_DIVERGENCE_FACTOR = 1e6


@dataclass
class CoordinatorLog:
    """Structural record of everything one coordinator observed."""

    cluster_outputs: tuple[int, ...]   # raw measurement indices it may read
    cluster_inputs: tuple[int, ...]    # control channels it may broadcast to
    raw_outputs_seen: set = field(default_factory=set)  # support of P_y row
    inputs_written: set = field(default_factory=set)    # support of P_u row
    ybar_entries_seen: set = field(default_factory=set)


@dataclass
class SimTrace:
    """Per-step records of the three-step schedule plus link usage."""

    times: np.ndarray
    ybar: np.ndarray                   # (steps, r) averaged outputs
    ubar: np.ndarray                   # (steps, r) low-dimensional controls
    u: np.ndarray                      # (steps, n_u) broadcast controls
    coordinator_logs: list
    link_usage: dict                   # edge -> use count

    @property
    def links_used(self) -> int:
        return sum(1 for v in self.link_usage.values() if v > 0)


@dataclass
class SimResult:
    times: np.ndarray
    x: np.ndarray                      # plant states (steps, n)
    xk: np.ndarray                     # controller states (steps, n_k)
    y: np.ndarray
    z: np.ndarray
    u: np.ndarray
    trace: SimTrace
    staged_vs_monolithic: float        # max relative state deviation


def impulse_disturbance(channel: int):
    """Impulse on one disturbance channel, realized as x(0) = B1[:, channel]."""
    return ("impulse", channel)


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


def run_hier_simulation(g: GeneralizedPlant, controller: HierarchicalController,
                        horizon: float, dt: float | None = None,
                        disturbance=("impulse", 0), x0=None,
                        partition: ClusterPartition | None = None,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> SimResult:
    """Simulate the closed loop with the staged three-step controller.

    Fixed-step classical Runge-Kutta on the joint plant/controller dynamics
    with a zero-order-hold disturbance.  ``dt`` must resolve the fastest
    closed-loop mode (dt <= 0.1 / |lambda_max|); by default half that limit
    is used.  A monolithic simulation of lft_lower(G, P_u^T K~ P_y) runs
    alongside and the maximum relative state deviation is checked against
    1e-9 on every sample.

    Raises UnstableClosedLoop when the closed loop has an eigenvalue with
    Re >= -hurwitz_margin, or when the trajectory norm exceeds 1e6 times its
    initial scale.
    """
    k_full = controller.expand()
    closed = lft_lower(g, k_full)
    eigs = np.linalg.eigvals(closed.a)
    spectral_radius = float(np.max(np.abs(eigs)))
    limit = 0.1 / max(spectral_radius, 1e-12)
    if dt is None:
        dt = 0.5 * limit
    if dt > limit:
        raise ValueError(f"dt={dt:.3e} exceeds the resolution limit {limit:.3e}")
    if np.max(eigs.real) >= -tol.hurwitz_margin:
        raise UnstableClosedLoop("closed loop is not Hurwitz")

    n, nk = g.n, controller.k_tilde.n_states
    m1 = g.m1
    steps = int(np.ceil(horizon / dt))
    times = np.arange(steps + 1) * dt

    kind = disturbance[0]
    if kind == "impulse":
        channel = int(disturbance[1])
        w_path = np.zeros((steps + 1, m1))
        x_init = g.b1[:, channel].copy()
    elif kind == "noise":
        seed, scale = int(disturbance[1]), float(disturbance[2])
        w_path = scale * np.random.default_rng(seed).standard_normal(
            (steps + 1, m1))
        x_init = np.zeros(n)
    elif kind == "array":
        w_path = np.asarray(disturbance[1], float)
        if w_path.shape != (steps + 1, m1):
            raise ValueError("disturbance array must be (steps + 1, m1)")
        x_init = np.zeros(n)
    else:
        raise ValueError(f"unknown disturbance kind {kind!r}")
    if x0 is not None:
        x_init = x_init + np.asarray(x0, float)

    p_u, p_y = controller.p_u, controller.p_y
    kt = controller.k_tilde
    r = p_u.shape[0]
    logs = _coordinator_layout(controller, partition)

    # map channels to owning subsystems so links are counted per subsystem
    out_owner = {}
    in_owner = {}
    for s, sub in enumerate(g.subsystems):
        for j in sub.outputs:
            out_owner[int(j)] = s
        for j in sub.inputs:
            in_owner[int(j)] = s

    # every read, write and coordinator exchange happens once per sample,
    # so a link's use count is its multiplicity in those lists times the
    # number of samples
    links = Counter()
    for i, log in enumerate(logs):
        log.ybar_entries_seen.update(range(r))
        links.update(("sub", out_owner.get(j, j), "coord", i)
                     for j in sorted(log.raw_outputs_seen))
        links.update(("sub", in_owner.get(j, j), "coord", i)
                     for j in sorted(log.inputs_written))
    links.update(("coord", i, "coord", j)
                 for i in range(r) for j in range(i + 1, r))
    link_usage = {key: count * len(times) for key, count in links.items()}

    def staged_field(x, xk, w):
        """One evaluation of the joint vector field through the schedule."""
        y = g.c2 @ x + g.d21 @ w
        ybar = p_y @ y                      # step 1: output averaging
        if nk:
            dxk = kt.a @ xk + kt.b @ ybar   # step 2: low-dimensional law
            ubar = kt.c @ xk + kt.d @ ybar
        else:
            dxk = xk
            ubar = kt.d @ ybar
        u = p_u.T @ ubar                    # step 3: control inversion
        dx = g.a @ x + g.b1 @ w + g.b2 @ u
        return dx, dxk, y, ybar, ubar, u

    # monolithic oracle on the assembled realization
    acl, bcl = closed.a, closed.b

    x = x_init.copy()
    xk = np.zeros(nk)
    x_mono = np.concatenate([x_init, np.zeros(nk)])

    xs = np.empty((steps + 1, n))
    xks = np.empty((steps + 1, nk))
    ys = np.empty((steps + 1, g.n_y))
    zs = np.empty((steps + 1, g.p1))
    us = np.empty((steps + 1, g.n_u))
    ybars = np.empty((steps + 1, r))
    ubars = np.empty((steps + 1, r))

    guard = _DIVERGENCE_FACTOR * max(1.0, np.linalg.norm(x_init))
    max_rel = 0.0

    for step in range(steps + 1):
        w = w_path[step]
        _, _, y, ybar, ubar, u = staged_field(x, xk, w)
        xs[step], xks[step], ys[step] = x, xk, y
        ybars[step], ubars[step], us[step] = ybar, ubar, u
        zs[step] = g.c1 @ x + g.d12 @ u

        mono_ref = np.concatenate([x, xk])
        denom = max(1.0, float(np.linalg.norm(x_mono)))
        max_rel = max(max_rel, float(np.linalg.norm(mono_ref - x_mono)) / denom)

        if np.linalg.norm(x) > guard:
            raise UnstableClosedLoop(
                f"trajectory norm exceeded {guard:.3e} at t={times[step]:.3f}")
        if step == steps:
            break

        # staged RK4: each stage re-runs the three-step schedule
        def f(xv, xkv):
            dx, dxk, *_ = staged_field(xv, xkv, w)
            return dx, dxk

        k1x, k1k = f(x, xk)
        k2x, k2k = f(x + 0.5 * dt * k1x, xk + 0.5 * dt * k1k)
        k3x, k3k = f(x + 0.5 * dt * k2x, xk + 0.5 * dt * k2k)
        k4x, k4k = f(x + dt * k3x, xk + dt * k3k)
        x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        xk = xk + dt / 6.0 * (k1k + 2 * k2k + 2 * k3k + k4k)

        # monolithic RK4 with the same held disturbance
        def fm(v):
            return acl @ v + bcl @ w

        m1k = fm(x_mono)
        m2k = fm(x_mono + 0.5 * dt * m1k)
        m3k = fm(x_mono + 0.5 * dt * m2k)
        m4k = fm(x_mono + dt * m3k)
        x_mono = x_mono + dt / 6.0 * (m1k + 2 * m2k + 2 * m3k + m4k)

    if max_rel > _STAGED_MATCH_RTOL:
        raise RuntimeError(
            f"staged and monolithic simulations diverged: {max_rel:.3e}")

    trace = SimTrace(times=times, ybar=ybars, ubar=ubars, u=us,
                     coordinator_logs=logs, link_usage=link_usage)
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
