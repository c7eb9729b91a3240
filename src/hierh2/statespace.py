"""State-space realizations and interconnection algebra.

A :class:`StateSpace` is the realization (A, B, C, D) of a real-rational
proper transfer matrix ``g(s) = C (sI - A)^{-1} B + D``.  Static gains are
realizations with zero states.  The composition helpers (`series`, `add`,
`transpose_dual`) return new realizations; they never simplify or minimize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d float array (scalars become 1x1)."""
    a = np.atleast_2d(np.asarray(m, dtype=float))
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} has non-finite entries")
    return a


@dataclass
class StateSpace:
    """Realization (A, B, C, D) with n states, m inputs, p outputs."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        self.a = as_matrix(self.a, "A")
        self.b = as_matrix(self.b, "B")
        self.c = as_matrix(self.c, "C")
        self.d = as_matrix(self.d, "D")
        n = self.a.shape[0]
        if self.a.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {self.a.shape}")
        if self.b.shape[0] != n:
            raise DimensionMismatch(f"B has {self.b.shape[0]} rows, expected {n}")
        if self.c.shape[1] != n:
            raise DimensionMismatch(f"C has {self.c.shape[1]} cols, expected {n}")
        if self.d.shape != (self.c.shape[0], self.b.shape[1]):
            raise DimensionMismatch(
                f"D has shape {self.d.shape}, expected "
                f"({self.c.shape[0]}, {self.b.shape[1]})")

    @classmethod
    def static(cls, d) -> "StateSpace":
        """Zero-state realization of a constant gain."""
        d = as_matrix(d, "D")
        p, m = d.shape
        return cls(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)), d)

    @classmethod
    def zero(cls, p: int, m: int) -> "StateSpace":
        return cls.static(np.zeros((p, m)))

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.c.shape[0]

    def eval(self, s: complex) -> np.ndarray:
        """Transfer matrix value C (sI - A)^{-1} B + D at one point."""
        if self.n_states == 0:
            return self.d.astype(complex)
        resolvent = np.linalg.solve(
            s * np.eye(self.n_states) - self.a, self.b)
        return self.c @ resolvent + self.d

    def __neg__(self) -> "StateSpace":
        return StateSpace(self.a, self.b, -self.c, -self.d)


def neg(sys: StateSpace) -> StateSpace:
    return -sys


def transpose_dual(sys: StateSpace) -> StateSpace:
    """Dual realization of g(s)^T: (A^T, C^T, B^T, D^T)."""
    return StateSpace(sys.a.T, sys.c.T, sys.b.T, sys.d.T)


def _series2(g: StateSpace, h: StateSpace) -> StateSpace:
    """Cascade u -> g -> h, i.e. the transfer product h(s) g(s)."""
    if h.n_inputs != g.n_outputs:
        raise DimensionMismatch(
            f"series: downstream expects {h.n_inputs} inputs, upstream "
            f"produces {g.n_outputs} outputs")
    ng, nh = g.n_states, h.n_states
    a = np.block([
        [g.a, np.zeros((ng, nh))],
        [h.b @ g.c, h.a],
    ])
    b = np.vstack([g.b, h.b @ g.d])
    c = np.hstack([h.d @ g.c, h.c])
    d = h.d @ g.d
    return StateSpace(a, b, c, d)


def series(*systems: StateSpace) -> StateSpace:
    """Cascade in application order: series(g, h) realizes h(s) g(s)."""
    if not systems:
        raise InvalidInput("series needs at least one system")
    out = systems[0]
    for nxt in systems[1:]:
        out = _series2(out, nxt)
    return out


def add(g: StateSpace, h: StateSpace) -> StateSpace:
    """Parallel sum g(s) + h(s)."""
    if (g.n_inputs, g.n_outputs) != (h.n_inputs, h.n_outputs):
        raise DimensionMismatch("add: systems must share input/output dims")
    ng, nh = g.n_states, h.n_states
    a = np.block([
        [g.a, np.zeros((ng, nh))],
        [np.zeros((nh, ng)), h.a],
    ])
    b = np.vstack([g.b, h.b])
    c = np.hstack([g.c, h.c])
    return StateSpace(a, b, c, g.d + h.d)
