"""Reference recurrence check: the hand-indexed convolution loops.

`leinert.series.verify_recurrences` states each first-return decomposition
as an identity between truncated power series and reads its residual off
the coefficients of a `Series` difference.  This is the version it
replaced: five loops, each convolving the tables by explicit index.  The
tests require the two to agree exactly.  The only change from the loops as
they stood is the summed-excursion line, which sums the per-generator
tables inline.
"""

from __future__ import annotations

from fractions import Fraction

from leinert.series import ProbabilityTables


def verify_recurrences(tables: ProbabilityTables) -> dict[str, Fraction]:
    """Max absolute residual of each first-return decomposition, exactly.

    Keys: even_return and lagged_return (the two unconditioned walks),
    avoiding_even and avoiding_odd (the masked walks), excursion_split
    (first returns = closing-step term + detours).  Sums involving a
    zero-step first return treat it as zero, a first return at time zero
    not being a return.
    """
    w = tables.weights
    n_max = tables.n_max
    mu = tables.even_returns
    p = tables.lagged_returns
    f_tot = [
        sum((table[m] for table in tables.excursion_returns.values()), Fraction(0))
        for m in range(2 * n_max + 1)
    ]

    residuals: dict[str, Fraction] = {}

    worst = Fraction(0)
    for n in range(1, n_max + 1):
        rhs = sum((f_tot[2 * k] * mu[n - k] for k in range(1, n + 1)), Fraction(0))
        rhs += w.alpha0 * p[n]
        worst = max(worst, abs(mu[n] - rhs))
    residuals["even_return"] = worst

    worst = Fraction(0)
    for n in range(1, n_max + 1):
        rhs = sum((f_tot[2 * k] * p[n - k] for k in range(1, n)), Fraction(0))
        rhs += w.alpha0 * mu[n - 1]
        worst = max(worst, abs(p[n] - rhs))
    residuals["lagged_return"] = worst

    worst = Fraction(0)
    for gen, a_tab in tables.avoiding_even_returns.items():
        f_gen = tables.excursion_returns[gen]
        b_tab = tables.avoiding_odd_returns[gen]
        for n in range(1, (len(a_tab) - 1) // 2 + 1):
            rhs = sum(
                ((f_tot[2 * k] - f_gen[2 * k]) * a_tab[2 * n - 2 * k] for k in range(1, n + 1)),
                Fraction(0),
            )
            rhs += w.alpha0 * b_tab[2 * n - 1]
            worst = max(worst, abs(a_tab[2 * n] - rhs))
    residuals["avoiding_even"] = worst

    worst = Fraction(0)
    for gen, b_tab in tables.avoiding_odd_returns.items():
        a_tab = tables.avoiding_even_returns[gen]
        for n in range(1, (len(b_tab) + 1) // 2 + 1):
            if 2 * n - 1 >= len(b_tab):
                break
            rhs = sum(
                (f_tot[2 * k] * b_tab[2 * n - 2 * k - 1] for k in range(1, n)),
                Fraction(0),
            )
            rhs += w.alpha0 * a_tab[2 * n - 2]
            worst = max(worst, abs(b_tab[2 * n - 1] - rhs))
    residuals["avoiding_odd"] = worst

    worst = Fraction(0)
    for gen, f_gen in tables.excursion_returns.items():
        a_tab = tables.avoiding_even_returns[gen]
        d_gen = tables.detour_returns[gen]
        alpha = w.alpha.get(gen, Fraction(0))
        for n in range(1, n_max + 1):
            if 2 * n - 2 >= len(a_tab):
                break
            rhs = alpha * alpha * a_tab[2 * n - 2] + d_gen[2 * n]
            worst = max(worst, abs(f_gen[2 * n] - rhs))
    residuals["excursion_split"] = worst

    return residuals
