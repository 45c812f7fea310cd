"""Probabilistic group sampling at the cloud (§6) — the sampling lab.

``probability`` computes the sampling vector p from group CoVs (Eq. 34)
with the paper's three weight functions (RCoV, SRCoV, ESRCoV) or uniform,
plus the closed-form variance-optimal p* ∝ n_g (Fraboni's p* ∝ n_g·‖x_g‖
with unit norms); ``schemes`` defines how S_t is drawn from p (sequential
without replacement, multinomial with replacement, or stratified
one-per-stratum); ``inclusion`` computes the inclusion probabilities π_g
of the sequential WOR draw (a deterministic quadrature over the
exponential-race time); ``sampler`` binds it all into the cloud-side
:class:`GroupSampler` and the aggregation weights (plain, unbiased
Horvitz–Thompson ``n_g/(n·α_g)``, or the stabilized normalization of
Eq. 35).
"""

from repro.sampling.inclusion import (
    num_ordered_sequences,
    sequential_wor_inclusion,
    sequential_wor_inclusion_exact,
)
from repro.sampling.probability import (
    WEIGHT_FUNCTIONS,
    gamma_p,
    sampling_probabilities,
    sampling_probabilities_from_counts,
    uniform_probabilities,
    variance_optimal_probabilities,
)
from repro.sampling.sampler import (
    AggregationMode,
    GroupSampler,
    aggregation_weights,
    sample_without_replacement,
)
from repro.sampling.schemes import (
    SCHEMES,
    MultinomialScheme,
    SamplingScheme,
    SequentialWORScheme,
    StratifiedScheme,
    make_scheme,
)

__all__ = [
    "WEIGHT_FUNCTIONS",
    "gamma_p",
    "sampling_probabilities",
    "sampling_probabilities_from_counts",
    "uniform_probabilities",
    "variance_optimal_probabilities",
    "GroupSampler",
    "AggregationMode",
    "aggregation_weights",
    "sample_without_replacement",
    "SamplingScheme",
    "MultinomialScheme",
    "SequentialWORScheme",
    "StratifiedScheme",
    "SCHEMES",
    "make_scheme",
    "num_ordered_sequences",
    "sequential_wor_inclusion",
    "sequential_wor_inclusion_exact",
]
