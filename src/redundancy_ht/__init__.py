"""Analysis toolkit and simulator for parallel-server systems with
job-server compatibility constraints under redundancy scheduling:
exact pre-limit laws, critically-loaded-subsystem decomposition,
explicit K-dimensional heavy-traffic limit laws, and validation against
brute-force oracles and discrete-event simulation.

The oracle names below load `oracles` on first access, since no command
but `verify` runs them.
"""
from .model import (SystemModel, TrajectorySpec, aggregate, default_trajectory,
                    effective_rates, load_model, model_at_trajectory, parse_model)
from .criticality import (ComponentDag, CriticalityReport, CrpClass, CrpComponent,
                          critical_rate, require_stable, crp_components,
                          critical_subsets_via_construction, report_from_construction)
from .analytic import (LimitLaw, MixtureLaw, limit_law, limiting_laplace,
                       limiting_transform, pgf_coc, pgf_cos, sample_limit, sigma_mixture)
from .prelimit import SegmentLaw, linear_moment, sample_prelimit, segment_law
from .moments import (limit_moment_total, limit_response_time, moment, moment_total,
                      scaled_total_moment)
from .simulator import SimEstimate, ks_two_sample, scaled_law_check, simulate

__version__ = "0.1.0"

_ORACLES = frozenset((
    "OrderedTypeVector", "RepresentationMatrices", "beta_hat", "beta_hat_sigma_k",
    "beta_weight", "check_stability", "config_distribution", "config_prob",
    "critical_rate_and_subsets_bruteforce", "ctmc_oracle", "enumerate_k_critical", "eulerian",
    "h_term", "laplace_of_mixture", "linear_exponential_moment", "mixture_law",
    "moment_total_alt", "moments_identity", "nested_sum_identity", "omega_weight",
    "ordered_vector", "p_star", "representation_matrices", "sigma_aggregate",
    "sigma_weight_formula"))


def __getattr__(name):
    if name in _ORACLES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _ORACLES)
