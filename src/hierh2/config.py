"""Numerical tolerance profiles.

Every tolerance referenced in module contracts lives here so callers can
override them coherently (e.g. the CLI's ``--tol-profile``).  Functions take a
``tol`` keyword defaulting to :data:`DEFAULT_TOLERANCES`.
"""

from dataclasses import dataclass, replace

from .errors import InvalidInput


@dataclass(frozen=True)
class Tolerances:
    # eigenvalue classification
    hurwitz_margin: float = 1e-12       # Re(lambda) >= -margin counts as not Hurwitz
    imag_axis: float = 1e-10            # |Re(lambda)| <= tol * max(1, |lambda|) is "on axis"
    unstable_cut: float = 1e-10         # Re(lambda) >= -cut counts as unstable

    # residuals
    lyap_residual: float = 1e-9         # relative to max(1, ||B B'||_F)
    # Riccati: Newton refines X down to are_residual max(1, ||Q||_F) and
    # accepts it within are_residual max(1, ||Q||_F, ||X M X||_F)
    are_residual: float = 1e-8
    # eigenpair block Z, Lambda of H: ||H Z - Z Lambda||_F relative to
    # max(1, ||H Z||_F), on the dense and the Krylov path
    subspace_residual: float = 1e-8

    # conditioning / definiteness
    cond_max: float = 1e12
    psd_floor: float = 1e-10
    psd_reject: float = 1e-6            # lambda_min < -psd_reject * ||M||_2 raises NotPSD

    # tests on structure
    pbh_rel: float = 1e-8               # sigma_min threshold relative to matrix scale
    membership_rel: float = 1e-8        # frequency-sampled subspace membership
    strictly_proper: float = 1e-14
    # A4: ||D12' C1||_F <= cross_term_rel ||D12||_F ||C1||_F, and likewise
    # ||B1 D21'||_F against ||B1||_F ||D21||_F
    cross_term_rel: float = 1e-12

    # iterative procedures
    # hinf_norm returns the midpoint of a bracket [lb, (1 + hinf_rel) lb] of
    # the H-infinity norm, so it is within hinf_rel/2 of it, relative.
    hinf_rel: float = 1e-6
    # lambda_min(C1'C1 - C1bar'C1bar) >= -floor * max(1, ||C1'C1||_2)
    stability_test_floor: float = 1e-8

    def with_(self, **kw) -> "Tolerances":
        return replace(self, **kw)


DEFAULT_TOLERANCES = Tolerances()

STRICT_TOLERANCES = Tolerances(
    lyap_residual=1e-11,
    are_residual=1e-10,
    subspace_residual=1e-10,
    hinf_rel=1e-8,
    membership_rel=1e-10,
)

_PROFILES = {"default": DEFAULT_TOLERANCES, "strict": STRICT_TOLERANCES}


def tolerance_profile(name: str) -> Tolerances:
    """Look up a named profile ('default' or 'strict')."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise InvalidInput(f"unknown tolerance profile {name!r}") from None
