"""Reference walk DP over raw reduced-word states: the test oracle.

This is the three-loop dynamic program that `leinert.series.dp_tables`
replaced with one propagator over lumped sign-string classes.  Every state
here is a tuple of reduced words, one per factor, letters spelled as signed
generator numbers, so it works for any weights, uniform or not, at the cost
of tens of thousands of states where the lumped walk needs hundreds.  The
tests require `dp_tables` to equal it exactly on small cases.
"""

from __future__ import annotations

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


def _step_symbols(weights: WalkWeights):
    return [((i, j), j + 1, a) for (i, j), a in weights.alpha.items() if a]


def _return_weights(signature, weights, steps, first_plain):
    """Per-step identity mass and total mass of the unconstrained walk."""
    zero = Fraction(0)
    home = _identity(signature)
    symbols = _step_symbols(weights)
    dist: dict[State, Fraction] = {home: Fraction(1)}
    at_home = [Fraction(1)]
    mass = [Fraction(1)]
    for m in range(1, steps + 1):
        plain = (m % 2 == 0) != first_plain
        nxt: dict[State, Fraction] = {}
        for state, wt in dist.items():
            for (i, _j), base, a in symbols:
                ns = _apply(state, i, base if plain else -base)
                nxt[ns] = nxt.get(ns, zero) + wt * a
        if weights.alpha0:
            lazy = dist.get(home)
            if lazy:
                nxt[home] = nxt.get(home, zero) + lazy * weights.alpha0
        _check_budget(nxt, f"return walk on {signature}, step {m}")
        dist = nxt
        at_home.append(dist.get(home, zero))
        mass.append(sum(dist.values(), zero))
    return at_home, mass

def _excursion_weights(signature, weights, steps, gen):
    """First-return and detour weights for excursions opening with gen^-1.

    The excursion never stands on the identity in between, so the lazy loop
    never fires; arrivals at the identity are recorded and absorbed, split
    by whether they come from the opening letter's position.
    """
    zero = Fraction(0)
    home = _identity(signature)
    symbols = _step_symbols(weights)
    i0, j0 = gen
    start = _apply(home, i0, -(j0 + 1))
    first = [zero] * (steps + 1)
    detour = [zero] * (steps + 1)
    a0 = weights.alpha.get(gen, zero)
    if steps < 1 or not a0:
        return first, detour
    dist: dict[State, Fraction] = {start: a0}
    for m in range(2, steps + 1):
        plain = m % 2 == 0
        nxt: dict[State, Fraction] = {}
        arrived = zero
        arrived_detour = zero
        for state, wt in dist.items():
            for (i, _j), base, a in symbols:
                ns = _apply(state, i, base if plain else -base)
                w = wt * a
                if ns == home:
                    arrived += w
                    if state != start:
                        arrived_detour += w
                else:
                    nxt[ns] = nxt.get(ns, zero) + w
        _check_budget(nxt, f"excursion walk on {signature}, step {m}")
        first[m] = arrived
        detour[m] = arrived_detour
        dist = nxt
    return first, detour


def _avoiding_weights(signature, weights, steps, gen, first_plain):
    """Return weights of walks never standing on the element gen in between.

    The mask applies to interior times only, so the identity mass is read
    off before the masked state is dropped at each step.
    """
    zero = Fraction(0)
    home = _identity(signature)
    symbols = _step_symbols(weights)
    i0, j0 = gen
    masked = _apply(home, i0, j0 + 1)
    dist: dict[State, Fraction] = {home: Fraction(1)}
    at_home = [Fraction(1)]
    for m in range(1, steps + 1):
        plain = (m % 2 == 0) != first_plain
        nxt: dict[State, Fraction] = {}
        for state, wt in dist.items():
            for (i, _j), base, a in symbols:
                ns = _apply(state, i, base if plain else -base)
                nxt[ns] = nxt.get(ns, zero) + wt * a
        if weights.alpha0:
            lazy = dist.get(home)
            if lazy:
                nxt[home] = nxt.get(home, zero) + lazy * weights.alpha0
        _check_budget(nxt, f"avoiding walk on {signature}, step {m}")
        dist = nxt
        at_home.append(dist.get(home, zero))
        dist.pop(masked, None)
    return at_home


def reference_dp_tables(
    signature: GroupSignature, weights: WalkWeights, n_max: int
) -> ProbabilityTables:
    """Compute every table exactly, walking out to 2*n_max steps."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    steps = 2 * n_max
    zero = Fraction(0)

    inverse_first, mass = _return_weights(signature, weights, steps, first_plain=False)
    plain_first, _ = _return_weights(signature, weights, steps - 1, first_plain=True)

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
        avoid_even[gen] = tuple(
            _avoiding_weights(signature, weights, steps - 2, gen, first_plain=True)
        )
        odd_table = _avoiding_weights(signature, weights, steps - 1, gen, first_plain=False)
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
