"""Exception hierarchy shared by all modules.

Two families matter for callers: :class:`PreconditionError` (bad inputs,
violated hypotheses) and :class:`NumericalError` (a computation could not be
completed reliably).  The CLI maps them to exit codes 2 and 3.
"""


class ToolkitError(Exception):
    """Base class for all hierh2 errors."""


class PreconditionError(ToolkitError):
    """An operation was called outside its stated preconditions."""


class NumericalError(ToolkitError):
    """A numerical procedure failed or could not certify its result."""


# -- precondition violations -------------------------------------------------

class DimensionMismatch(PreconditionError):
    pass


class NotHurwitz(PreconditionError):
    """A matrix required to be Hurwitz has an eigenvalue with Re >= -margin."""


class NotStrictlyProper(PreconditionError):
    """A strictly proper system was required but D != 0."""


class NotStabilizable(PreconditionError):
    """PBH stabilizability (or detectability, on the dual) test failed."""


class NotPSD(PreconditionError):
    """A matrix required to be positive semidefinite is indefinite."""


class ZeroClusterWeight(PreconditionError):
    """A cluster's weight restriction is the zero vector."""


class NotStabilizingGains(PreconditionError):
    """Supplied Youla gains F, L do not stabilize the plant."""


class HypothesisFailure(PreconditionError):
    """A synthesis hypothesis (projected PBH or plant assumptions) fails."""


class DegenerateData(PreconditionError):
    """Clustering data has fewer distinct rows than requested clusters."""


# -- numerical failures --------------------------------------------------------

class HamiltonianImaginaryAxis(NumericalError):
    """The Hamiltonian matrix has an eigenvalue numerically on jR."""


class ImaginaryAxisEigenvalue(NumericalError):
    """An eigenvalue lies within tolerance of the imaginary axis."""


class SingularZ1(NumericalError):
    """The Z1 block of a stable subspace is numerically singular."""


class SingularPencil(NumericalError):
    """Z2k' Z1k is too ill conditioned to form the truncated solution."""


class SingularR(NumericalError):
    """A weighting matrix required to be positive definite is singular."""


class IllConditionedR(NumericalError):
    """Projected weighting matrix has condition number above the cap."""


class ArnoldiNoConvergence(NumericalError):
    """The one shift-invert Arnoldi attempt failed; the message names the
    cause.  The dense method needs none of its steps."""


class ApproxNotStabilizing(NumericalError):
    """Truncated Riccati gains leave the control or the filter loop with an
    eigenvalue at Re >= -hurwitz_margin; raise kappa."""


class NoFeasibleWeights(NumericalError):
    """Weight sampling exhausted max_tries without satisfying PBH."""


class UnstableClosedLoop(NumericalError):
    """Simulated trajectories grew beyond the divergence guard."""


class DisconnectedIntraBlockWarning(UserWarning):
    """An intended coherent block's induced subgraph is disconnected."""


class ConjugatePairSplitWarning(UserWarning):
    """A requested subspace dimension split a conjugate pair and was bumped."""
