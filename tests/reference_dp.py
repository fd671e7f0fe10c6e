"""Reference walk DP over raw reduced-word states: the test oracle.

This is the three-loop dynamic program that `leinert.series.dp_tables`
replaced with one propagator over lumped sign-string classes.  Every state
here is a tuple of reduced words, one per factor, letters spelled as signed
generator numbers, so it works for any weights, uniform or not, at the cost
of tens of thousands of states where the lumped walk needs hundreds.  Each
state carries an int numerator over q^m, q the least common denominator of
the weights, and only the tables become Fractions.  The tests require
`dp_tables` to equal it exactly on small cases.
"""

from __future__ import annotations

import math
from fractions import Fraction

from leinert.census import BudgetExceededError
from leinert.groups import GroupSignature
from leinert.series import ProbabilityTables, WalkWeights

MAX_STATES = 2_000_000

State = tuple[tuple[int, ...], ...]


def _apply(state: State, factor: int, signed: int) -> State:
    word = state[factor]
    if word and word[-1] == -signed:
        new = word[:-1]
    else:
        new = word + (signed,)
    return state[:factor] + (new,) + state[factor + 1 :]


def _identity(signature: GroupSignature) -> State:
    return tuple(() for _ in signature.factors)


def _check_budget(dist, description):
    if len(dist) > MAX_STATES:
        raise BudgetExceededError(description, len(dist), MAX_STATES)


def _integer_steps(weights: WalkWeights):
    """q, the least common denominator of the weights, and the weights as
    integer numerators over q: (factor, signed generator, numerator) per
    letter with a nonzero weight, and the lazy loop's numerator.

    A walk's weight after m steps is then an int over q^m, which the loops
    below carry instead of a Fraction per state.
    """
    rates = [Fraction(a) for a in (weights.alpha0, *weights.alpha.values())]
    q = math.lcm(*(r.denominator for r in rates))
    symbols = [
        (i, j + 1, int(Fraction(a) * q)) for (i, j), a in weights.alpha.items() if a
    ]
    return q, symbols, int(Fraction(weights.alpha0) * q)


def _over_powers(numerators, q):
    """The m-th numerator over q^m, as exact Fractions."""
    return [Fraction(n, q**m) for m, n in enumerate(numerators)]


def _home_weights(signature, weights, steps, first_plain, masked=None):
    """Per-step identity mass and total mass of the walk from the identity,
    never standing on the element `masked` in between.

    The mask applies to interior times only, so the identity mass is read
    off before the masked state is dropped at each step.
    """
    q, symbols, lazy_weight = _integer_steps(weights)
    home = _identity(signature)
    dist: dict[State, int] = {home: 1}
    at_home = [1]
    mass = [1]
    for m in range(1, steps + 1):
        plain = (m % 2 == 0) != first_plain
        nxt: dict[State, int] = {}
        for state, wt in dist.items():
            for i, base, a in symbols:
                ns = _apply(state, i, base if plain else -base)
                nxt[ns] = nxt.get(ns, 0) + wt * a
        if lazy_weight:
            lazy = dist.get(home)
            if lazy:
                nxt[home] = nxt.get(home, 0) + lazy * lazy_weight
        _check_budget(nxt, f"walk from the identity on {signature}, step {m}")
        dist = nxt
        at_home.append(dist.get(home, 0))
        mass.append(sum(dist.values()))
        dist.pop(masked, None)
    return _over_powers(at_home, q), _over_powers(mass, q)


def _excursion_weights(signature, weights, steps, gen):
    """First-return and detour weights for excursions opening with gen^-1.

    The excursion never stands on the identity in between, so the lazy loop
    never fires; arrivals at the identity are recorded and absorbed, split
    by whether they come from the opening letter's position.
    """
    q, symbols, _ = _integer_steps(weights)
    home = _identity(signature)
    i0, j0 = gen
    start = _apply(home, i0, -(j0 + 1))
    first = [0] * (steps + 1)
    detour = [0] * (steps + 1)
    a0 = int(Fraction(weights.alpha.get(gen, 0)) * q)
    if steps < 1 or not a0:
        return _over_powers(first, q), _over_powers(detour, q)
    dist: dict[State, int] = {start: a0}
    for m in range(2, steps + 1):
        plain = m % 2 == 0
        nxt: dict[State, int] = {}
        arrived = 0
        arrived_detour = 0
        for state, wt in dist.items():
            for i, base, a in symbols:
                ns = _apply(state, i, base if plain else -base)
                w = wt * a
                if ns == home:
                    arrived += w
                    if state != start:
                        arrived_detour += w
                else:
                    nxt[ns] = nxt.get(ns, 0) + w
        _check_budget(nxt, f"excursion walk on {signature}, step {m}")
        first[m] = arrived
        detour[m] = arrived_detour
        dist = nxt
    return _over_powers(first, q), _over_powers(detour, q)


def reference_dp_tables(
    signature: GroupSignature, weights: WalkWeights, n_max: int
) -> ProbabilityTables:
    """Compute every table exactly, walking out to 2*n_max steps."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    steps = 2 * n_max
    zero = Fraction(0)

    inverse_first, mass = _home_weights(signature, weights, steps, first_plain=False)
    plain_first, _ = _home_weights(signature, weights, steps - 1, first_plain=True)

    even_returns = tuple(inverse_first[2 * n] for n in range(n_max + 1))
    lagged_returns = (zero,) + tuple(plain_first[2 * n - 1] for n in range(1, n_max + 1))

    excursions = {}
    detours = {}
    avoid_even = {}
    avoid_odd = {}
    for gen in signature.bases():
        first, detour = _excursion_weights(signature, weights, steps, gen)
        excursions[gen] = tuple(first)
        detours[gen] = tuple(detour)
        masked = _apply(_identity(signature), gen[0], gen[1] + 1)
        avoid_even[gen] = tuple(
            _home_weights(signature, weights, steps - 2, True, masked)[0]
        )
        odd_table = _home_weights(signature, weights, steps - 1, False, masked)[0]
        odd_table[0] = zero  # index 0 is not an odd horizon; drop the bootstrap mass
        avoid_odd[gen] = tuple(odd_table)

    return ProbabilityTables(
        signature=signature,
        weights=weights,
        n_max=n_max,
        even_returns=even_returns,
        lagged_returns=lagged_returns,
        excursion_returns=excursions,
        detour_returns=detours,
        avoiding_even_returns=avoid_even,
        avoiding_odd_returns=avoid_odd,
        layer_mass=tuple(mass),
    )
