"""Statistical scarcity of bad strings in products of free groups.

Five capabilities, one per module pair:

- groups/census: exact classification and enumeration of valid, reduced,
  bad, and kernel strings;
- sampler: vectorized Monte Carlo estimates of how rare bad strings are;
- series: exact rational recurrences for an alternating random walk and
  the generating-function identities they satisfy;
- bounds: radius-of-convergence bounds, pinched between a discriminant
  breakdown point and a one-variable minimization;
- spectral: Haar-random-unitary experiments estimating the operator norm
  the radius bounds predict.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    ConvergenceError,
    DBound,
    DKind,
    PastRadiusError,
    RadiusProblem,
    bound_report,
    curve_points,
    discriminant_roots,
    eval_P,
    eval_P_prime,
    eval_Q,
    free_radius,
    quadratic_coeffs,
    r_squared_closed_form,
    radius_from_discriminant,
    solve_G_upper,
    woess_radius,
)
from .census import (
    BadStringCensus,
    BudgetExceededError,
    CensusEntry,
    bad_count_length8_formula,
    bad_count_length12_formula,
    brute_force_return_walks,
    composition_sum_identity,
    compositions_count,
    count_bad_exact,
    first_return_formula,
    fit_exponential_rate,
    growth_rate,
    iter_bad_strings,
    iter_compositions,
    return_walks_formula,
    take_census,
    valid_string_count,
    walk_formula_comparison,
)
from .groups import (
    GroupSignature,
    Letter,
    MalformedWordError,
    NormalForm,
    Word,
    is_kernel,
    is_reduced_string,
    is_simple_cycle,
    normal_form,
    parse_signature,
    word_to_text,
)
from .sampler import (
    SampleConfig,
    SampleReport,
    StringModel,
    estimate_bad_frequency,
    estimate_decay_rate,
    wilson_interval,
)
from .series import (
    ProbabilityTables,
    Series,
    SeriesBundle,
    WalkWeights,
    dp_tables,
    generating_functions,
    verify_recurrences,
)
from .spectral import (
    NormEstimate,
    SpectralConfig,
    apply_T,
    estimate_z_inverse,
    free_limit,
    haar_unitary,
    two_norm,
)
