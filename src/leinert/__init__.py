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

sampler and spectral are the modules that need numpy; their names here load
on first access, so importing the package (or running an exact subcommand)
does not import numpy.
"""

__version__ = "0.1.0"

import importlib

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
    free_limit,
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
from .series import (
    ProbabilityTables,
    Series,
    SeriesBundle,
    WalkWeights,
    dp_tables,
    generating_functions,
    verify_recurrences,
)

_SAMPLER = (
    "SampleConfig SampleReport StringModel estimate_bad_frequency estimate_decay_rate "
    "wilson_interval"
).split()
_SPECTRAL = (
    "NormEstimate SpectralConfig apply_T estimate_z_inverse haar_unitary two_norm"
).split()


def _lazy_names(namespace: dict, **homes):
    """A module __getattr__ (PEP 562) for `namespace`: each name listed under
    a leinert module in `homes` is imported from it on first access and kept
    in `namespace`, so later lookups find it there."""
    home_of = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name: str):
        module = home_of.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _lazy_names(globals(), sampler=_SAMPLER, spectral=_SPECTRAL)


def __dir__() -> list:
    return sorted({*globals(), *_SAMPLER, *_SPECTRAL})
