"""Analysis toolkit and simulator for parallel-server systems with
job-server compatibility constraints under redundancy scheduling:
exact pre-limit laws, critically-loaded-subsystem decomposition,
explicit K-dimensional heavy-traffic limit laws, and validation against
brute-force oracles and discrete-event simulation.
"""
from .model import (SystemModel, TrajectorySpec, aggregate, default_trajectory,
                    effective_rates, load_model, model_at_trajectory, parse_model)
from .criticality import (ComponentDag, CriticalityReport, CrpClass, CrpComponent,
                          check_stability, critical_rate, require_stable,
                          critical_rate_and_subsets_bruteforce, crp_components,
                          critical_subsets_via_construction, report_from_construction)
from .analytic import (LimitLaw, MixtureLaw, OrderedTypeVector, beta_hat,
                       beta_hat_sigma_k, beta_weight, enumerate_k_critical,
                       h_term, laplace_of_limit_law,
                       laplace_of_mixture, limit_law, limiting_laplace,
                       limiting_transform, mixture_law,
                       nested_sum_identity, omega_weight, ordered_vector, p_star,
                       pgf_coc, pgf_cos, sample_limit, sigma_aggregate,
                       sigma_mixture, sigma_weight_formula)
from .prelimit import (SegmentLaw, RepresentationMatrices, config_distribution, config_prob,
                       representation_matrices, sample_prelimit, segment_law)
from .moments import (MomentRequest, eulerian, limit_moment_total, limit_moment_type,
                      limit_response_time, linear_exponential_moment, moment,
                      moment_total, moment_total_alt, moments_identity,
                      scaled_total_moment)
from .simulator import (SimEstimate, ctmc_oracle, ks_two_sample, scaled_law_check,
                        simulate)

__version__ = "0.1.0"
