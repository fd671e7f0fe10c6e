"""Reference series checks: the hand-indexed recurrence loops, and the
generating functions in Fraction arithmetic.

`leinert.series.verify_recurrences` states each first-return decomposition
as an identity between truncated power series and reads its residual off
the coefficients of a `Series` difference.  `verify_recurrences` here is the
version it replaced: five loops, each convolving the tables by explicit
index.  The only change from the loops as they stood is the summed-excursion
line, which sums the per-generator tables inline.

`leinert.series.Series` holds integer numerators over one denominator.
`FractionSeries` is the Series it replaced, a tuple of Fractions with the
same arithmetic, and `generating_functions` is the function as it ran on
it, except that it builds every generator's series and split on its own.
It hands back the package's `SeriesBundle`, each series converted at the
end, so a bundle compares with `==`.  The tests require both checks to
agree with these exactly.
"""

from __future__ import annotations

from fractions import Fraction

from leinert.series import ProbabilityTables, Series, SeriesBundle


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


class FractionSeries:
    """Power series truncated at a fixed degree, coefficients Fractions.

    Arithmetic truncates to the smaller degree of its operands.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(map(Fraction, coeffs))
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @classmethod
    def constant(cls, value, degree: int) -> "FractionSeries":
        return cls((Fraction(value),) + (Fraction(0),) * degree)

    @classmethod
    def monomial(cls, value, power: int, degree: int) -> "FractionSeries":
        if power > degree:
            return cls.constant(0, degree)
        coeffs = [Fraction(0)] * (degree + 1)
        coeffs[power] = Fraction(value)
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "FractionSeries") -> "FractionSeries":
        k = min(self.degree, other.degree)
        return FractionSeries([a + b for a, b in zip(self.coeffs[: k + 1], other.coeffs[: k + 1])])

    def __sub__(self, other: "FractionSeries") -> "FractionSeries":
        k = min(self.degree, other.degree)
        return FractionSeries([a - b for a, b in zip(self.coeffs[: k + 1], other.coeffs[: k + 1])])

    def __mul__(self, other: "FractionSeries") -> "FractionSeries":
        k = min(self.degree, other.degree)
        out = [Fraction(0)] * (k + 1)
        for i, a in enumerate(self.coeffs[: k + 1]):
            if not a:
                continue
            for j in range(k + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return FractionSeries(out)

    def scale(self, factor) -> "FractionSeries":
        factor = Fraction(factor)
        return FractionSeries([factor * c for c in self.coeffs])

    def shift(self, powers: int) -> "FractionSeries":
        """Multiply by z^powers, truncating at the existing degree."""
        if powers < 0:
            raise ValueError("can only shift by nonnegative powers")
        coeffs = (Fraction(0),) * powers + self.coeffs
        return FractionSeries(coeffs[: self.degree + 1])

    def reciprocal(self) -> "FractionSeries":
        """Multiplicative inverse via the geometric convolution recursion."""
        a0 = self.coeffs[0]
        if not a0:
            raise ValueError("reciprocal needs a nonzero constant term")
        inv0 = 1 / a0
        out = [inv0] + [Fraction(0)] * self.degree
        for n in range(1, self.degree + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                if self.coeffs[k]:
                    acc += self.coeffs[k] * out[n - k]
            out[n] = -acc * inv0
        return FractionSeries(out)


def generating_functions(tables: ProbabilityTables) -> SeriesBundle:
    """The bundle of `leinert.series.generating_functions`, in Fractions."""
    degree = 2 * tables.n_max
    zero = Fraction(0)

    def step_indexed(table) -> FractionSeries:
        coeffs = list(table) + [zero] * (degree + 1 - len(table))
        return FractionSeries(coeffs[: degree + 1])

    g = [zero] * (degree + 1)
    h = list(g)
    g[0::2] = tables.even_returns
    h[1::2] = tables.lagged_returns[1:]
    returns_gf, lagged_gf = FractionSeries(g), FractionSeries(h)
    total = FractionSeries.constant(0, degree)
    for table in tables.excursion_returns.values():
        total = total + FractionSeries(table)

    excursion_gf = {g: step_indexed(t) for g, t in tables.excursion_returns.items()}
    detour_gf = {g: step_indexed(t) for g, t in tables.detour_returns.items()}
    avoiding_even_gf = {g: step_indexed(t) for g, t in tables.avoiding_even_returns.items()}
    avoiding_odd_gf = {g: step_indexed(t) for g, t in tables.avoiding_odd_returns.items()}

    lazy_gf = (
        FractionSeries.monomial(tables.weights.alpha0**2, 2, degree)
        * (FractionSeries.constant(1, degree) - total).reciprocal()
    )

    one = FractionSeries.constant(1, degree)
    recip_residual = returns_gf * (one - total - lazy_gf) - one
    worst_recip = max((abs(c) for c in recip_residual.coeffs), default=zero)

    worst_split = zero
    for gen, f in excursion_gf.items():
        alpha = tables.weights.alpha.get(gen, zero)
        predicted = avoiding_even_gf[gen].shift(2).scale(alpha * alpha) + detour_gf[gen]
        diff = f - predicted
        worst_split = max(worst_split, max(abs(c) for c in diff.coeffs))

    def package(series: FractionSeries) -> Series:
        return Series(series.coeffs)

    def per_generator(gfs: dict) -> dict:
        return {gen: package(series) for gen, series in gfs.items()}

    return SeriesBundle(
        returns_gf=package(returns_gf),
        lagged_gf=package(lagged_gf),
        excursion_gf=per_generator(excursion_gf),
        excursion_total_gf=package(total),
        avoiding_even_gf=per_generator(avoiding_even_gf),
        avoiding_odd_gf=per_generator(avoiding_odd_gf),
        detour_gf=per_generator(detour_gf),
        lazy_gf=package(lazy_gf),
        residuals={
            "reciprocal_relation": worst_recip,
            "excursion_split": worst_split,
        },
    )
