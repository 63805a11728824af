"""Rate functions and desk-scale experiments for upper-tail deviations of
the largest eigenvalue of Wigner matrices with sub-Gaussian entries."""

from .entries import (
    DiscreteAtoms,
    EntryDistribution,
    Gaussian,
    SparseGaussian,
    bernoulli_std,
    distribution_from_spec,
    rademacher,
    sparse_rademacher,
    standardize_atoms,
)
from .free_energy import f_hat, f_loc, f_restricted, f_tilde
from .gibbs import GibbsProblem, GibbsSolution, g_value, gibbs_solve, phi_unbounded, wasserstein2
from .rate import (
    FiniteNMode,
    FiniteNSpec,
    HatMode,
    HatSpec,
    ProfileFamily,
    RateCurve,
    RatePoint,
    TildeMode,
    TildeSpec,
    joint_rate,
    rate_curve,
    rate_point,
    sup_theta,
)
from .semicircle import SpectralPoint, goe_rate, j_value, log_potential, overlap, stieltjes, theta_roots

__version__ = "0.1.0"

# montecarlo loads scipy's compiled LAPACK module, which only Monte Carlo runs
# use: its names are served on first access (PEP 562), so a rate run loads no
# scipy module at all
_MONTECARLO = ("MCReport", "WignerSample", "eigvec_localization", "experiment",
               "lambda1_and_vector", "make_rng", "replica_rng", "sample_wigner")


def __getattr__(name):
    if name in _MONTECARLO:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
