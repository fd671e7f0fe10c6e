"""Command-line entry point: every capability as a subcommand.

Exit codes: 0 success, 2 usage errors (argparse's convention), 3 when a
computation hits one of its caps or fails to converge.  With --out, a run
that finishes writes its outputs and a manifest.json recording the full
configuration, the seed, and a digest per output, so a run can be
reproduced byte for byte (exact-arithmetic outputs) or statistically
(floating ones).  Every file is built in this module: tables by _table
(CSV, and space-separated for the figure data), JSON by _json.  radius only
prints.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__, _lazy_names
from .bounds import (
    ConvergenceError,
    DBound,
    RadiusProblem,
    bound_report,
    curve_points,
    discriminant_roots,
    free_radius,
    radius_from_discriminant,
)
from .census import BadStringCensus, BudgetExceededError, take_census
from .groups import GroupSignature, MalformedWordError, parse_signature
from .series import (
    ProbabilityTables,
    Series,
    SeriesBundle,
    WalkWeights,
    dp_tables,
    generating_functions,
    verify_recurrences,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3

# sampler and spectral bring numpy, which census, verify-series, radius and
# bounds never touch, so their names load on first access.  The subcommands
# call them as attributes of this module, _cli.<name>: a function set on
# cli.<name> from outside is the one they run.
__getattr__ = _lazy_names(
    globals(),
    sampler=("SampleConfig", "estimate_bad_frequency"),
    spectral=("NormEstimate", "SpectralConfig", "estimate_z_inverse", "free_limit"),
)
_cli = sys.modules[__name__]
# the subcommands that reach those names
_NUMPY_SUBCOMMANDS = ("sample", "spectral", "figure")


def _parse_d_bound(text: str) -> DBound:
    if text == "zero":
        return DBound.zero()
    try:
        if text.startswith("c="):
            return DBound.geometric_rate(float(text[2:]))
        if text.startswith("R="):
            return DBound.radius_form(float(text[2:]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad d-bound {text!r}: {exc}") from None
    raise argparse.ArgumentTypeError(
        f"bad d-bound {text!r}: expected zero, c=<float>, or R=<float>"
    )


def _parse_range(text: str) -> range:
    """Inclusive lo:hi with 1 <= lo <= hi, or a single positive integer:
    a range of generator counts s."""
    lo, sep, hi = text.partition(":")
    values = range(int(lo), int(hi if sep else lo) + 1)
    if not values:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: need lo <= hi")
    if values.start < 1:
        raise argparse.ArgumentTypeError(f"range {text!r} starts below s = 1")
    return values


def _max_length(text: str) -> int:
    """A string length bound; the shortest string that can be bad has length 2."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"max length must be >= 2, got {value}")
    return value


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


class _ConfigError(Exception):
    """A configuration object refused the values given on the command line."""


def _config(build, *args, **fields):
    """Build a configuration object, or call a function that validates its
    arguments; its ValueError becomes a usage error."""
    try:
        return build(*args, **fields)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None


def _ensure_seed(args) -> int:
    if args.seed is None:
        args.seed = int.from_bytes(os.urandom(8), "big") >> 1
        print(f"seed: {args.seed} (generated)")
    return args.seed


class _Manifest:
    """The named output texts of one run, written with manifest.json at the end.

    run() makes one before calling the subcommand, which only adds texts to
    it; files are written after the subcommand returns, so a run refused part
    way writes nothing, and duration_s times the whole computation.
    """

    def __init__(self, subcommand: str):
        self.subcommand = subcommand
        self.started = time.time()
        self.texts: dict[str, str] = {}

    def add(self, name: str, text: str) -> None:
        self.texts[name] = text

    def write(self, directory: Path, args: argparse.Namespace) -> None:
        # the config is read now: the run may have filled in a seed or weight
        duration = time.time() - self.started
        config = {k: str(v) for k, v in sorted(vars(args).items()) if k != "func"}
        directory.mkdir(parents=True, exist_ok=True)
        outputs = {}
        for name, text in self.texts.items():
            path = directory / name
            data = text.encode()
            path.write_bytes(data)
            outputs[name] = hashlib.sha256(data).hexdigest()
            print(f"wrote {path}")
        seed = config.get("seed")
        body = {
            "subcommand": self.subcommand,
            "config": config,
            "seed": None if seed in (None, "None") else int(seed),
            "version": __version__,
            "duration_s": round(duration, 3),
            "outputs": outputs,
        }
        if self.subcommand in _NUMPY_SUBCOMMANDS:
            # a BLAS result may change in its last digits with the thread count
            body["blas_threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS")
        path = directory / "manifest.json"
        path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


# -- output formats -----------------------------------------------------------
# The exact subcommands promise byte-identical files, so every spelling of a
# number in an output is decided here.


def _table(header: str, rows, sep: str = ",") -> str:
    """The header line, then one line per row; floats get 12 significant digits."""
    lines = [header]
    for row in rows:
        lines.append(sep.join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _json(body: dict) -> str:
    return json.dumps(body, indent=2) + "\n"


def _exact(value):
    """JSON form of exact results: a Fraction as "p/q", a Series as its
    coefficients, a per-generator map as f<i>g<j> keys in generator order."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Series):
        return _exact(value.coeffs)
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    if isinstance(value, dict):
        if all(isinstance(k, tuple) for k in value):
            return {f"f{i + 1}g{j + 1}": _exact(v) for (i, j), v in sorted(value.items())}
        return {k: _exact(v) for k, v in value.items()}
    return value


def write_census_csv(census: BadStringCensus) -> str:
    """census.csv: `length, total_valid, bad, kernels, frequency` rows."""
    rows = []
    for length in census.lengths():
        e = census.entries[length]
        rows.append((length, e.total_valid, e.bad, e.kernels, float(e.frequency)))
    return _table("length,total_valid,bad,kernels,frequency", rows)


def write_curve_csv(rows) -> str:
    """curve_points.csv from the rows of bounds.curve_points."""
    return _table("s,a,z_lower,z_upper,z_free_formula", rows)


def write_spectral_csv(estimate: NormEstimate) -> str:
    """spectral.csv: one row per trial."""
    cfg = estimate.config
    rows = [
        (cfg.s, cfg.N, cfg.a, trial, norm, steps, int(ok), f"{residual:.3g}")
        for trial, (norm, steps, ok, residual) in enumerate(
            zip(estimate.norms, estimate.iterations, estimate.converged, estimate.residuals)
        )
    ]
    return _table("s,N,a,trial,norm,iterations,converged,residual", rows)


def spectral_summary(estimate: NormEstimate) -> dict:
    cfg = estimate.config
    return {
        "s": cfg.s,
        "N": cfg.N,
        "a": cfg.a,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "mean": estimate.mean,
        "std": estimate.std,
        "all_converged": estimate.all_converged,
        "free_limit": _cli.free_limit(cfg.s, cfg.a),
    }


def tables_to_json(tables: ProbabilityTables) -> dict:
    """JSON-ready dict of every table, rationals spelled as "p/q" strings."""
    return _exact(
        {
            "signature": str(tables.signature),
            "n_max": tables.n_max,
            "weights": {"alpha0": tables.weights.alpha0, "alpha": tables.weights.alpha},
            "even_returns": tables.even_returns,
            "lagged_returns": tables.lagged_returns,
            "excursion_returns": tables.excursion_returns,
            "detour_returns": tables.detour_returns,
            "avoiding_even_returns": tables.avoiding_even_returns,
            "avoiding_odd_returns": tables.avoiding_odd_returns,
            "layer_mass": tables.layer_mass,
        }
    )


def bundle_to_json(bundle: SeriesBundle) -> dict:
    """JSON-ready dict of the generating-function coefficients and residuals:
    every field of the bundle, in declaration order."""
    return _exact(vars(bundle))


def _signature(text: str) -> GroupSignature:
    try:
        return parse_signature(text)
    except (MalformedWordError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


# -- census -------------------------------------------------------------------

def _cmd_census(args, manifest: _Manifest) -> int:
    sig = args.group
    lengths = range(2, args.max_length + 1, 2)
    census = _config(take_census, sig, lengths)
    print(f"group {sig}, lengths {lengths.start}..{args.max_length}")
    print(f"{'length':>6} {'valid':>14} {'bad':>8} {'kernels':>8} {'frequency':>12}")
    for length in census.lengths():
        e = census.entries[length]
        freq = float(e.frequency)
        print(f"{length:>6} {e.total_valid:>14} {e.bad:>8} {e.kernels:>8} {freq:>12.3e}")
    manifest.add("census.csv", write_census_csv(census))
    return EXIT_OK


# -- sample -------------------------------------------------------------------

def _cmd_sample(args, manifest: _Manifest) -> int:
    _ensure_seed(args)
    sig = args.group
    reports = [
        _cli.estimate_bad_frequency(
            _config(
                _cli.SampleConfig,
                signature=sig,
                length=length,
                samples=args.samples,
                seed=args.seed,
            )
        )
        for length in range(2, args.max_length + 1, 2)
    ]
    print(f"group {sig}, {args.samples} samples per length, seed {args.seed}")
    print(f"{'length':>6} {'bad':>8} {'freq':>12} {'wilson95':>28}")
    rows = []
    for report in reports:
        length, bad = report.config.length, report.bad_count
        freq = float(report.frequency)
        lo, hi = report.wilson_interval_95
        print(f"{length:>6} {bad:>8} {freq:>12.3e} [{lo:.3e}, {hi:.3e}]")
        rows.append((length, args.samples, bad, freq, lo, hi))
    manifest.add("sample.csv", _table("length,samples,bad,freq,wilson_lo,wilson_hi", rows))
    return EXIT_OK


# -- verify-series ------------------------------------------------------------

def _cmd_verify_series(args, manifest: _Manifest) -> int:
    sig = args.group
    if args.a is None:
        args.a = (1 - args.alpha0) / (2 * sig.total_generators)
    weights = _config(WalkWeights.uniform, sig, args.a, args.alpha0)
    tables = _config(dp_tables, sig, weights, args.n_max)
    residuals = verify_recurrences(tables)
    bundle = generating_functions(tables)
    mode = "probability" if weights.is_probability_mode else "norm"
    print(f"group {sig}, alpha0={weights.alpha0}, a={args.a} ({mode} mode), n_max={args.n_max}")
    print("recurrence residuals (exact):")
    for name, value in residuals.items():
        print(f"  {name:>16}: {value}")
    print("generating-function residuals (exact):")
    for name, value in bundle.residuals.items():
        print(f"  {name:>20}: {value}")
    payload = {
        "tables": tables_to_json(tables),
        "series": bundle_to_json(bundle),
        "recurrence_residuals": {k: str(v) for k, v in residuals.items()},
    }
    manifest.add("series_tables.json", _json(payload))
    return EXIT_OK


# -- radius and bounds --------------------------------------------------------

def _cmd_radius(args, manifest: _Manifest) -> int:
    problem = _config(RadiusProblem, s=args.s, a=args.a, d_bound=args.d_bound)
    z = radius_from_discriminant(problem)
    print(f"s={args.s} a={args.a} d-bound={args.d_bound.kind.value}")
    print(f"z = {z:.10g}   (z^-1 = {1.0 / z:.10g})")
    roots = discriminant_roots(problem)
    if len(roots) > 1:
        pretty = ", ".join(f"{r:.10g}" for r in roots)
        print(f"all discriminant roots: {pretty}")
    return EXIT_OK


def _cmd_bounds(args, manifest: _Manifest) -> int:
    problem = _config(RadiusProblem, s=args.s, a=args.a, d_bound=args.d_bound)
    report = bound_report(problem)
    print(f"s={args.s} a={args.a} d-bound={args.d_bound.kind.value}")
    print(f"r_lower = {report.r_lower:.10g}  (decay-corrected)")
    print(f"r_upper = {report.r_upper:.10g}  (trivially-decaying ideal, theta={report.theta:.6g})")
    print(f"gap = {report.gap:.4g} absolute, {report.relative_gap:.4g} relative")
    manifest.add("curve_points.csv", write_curve_csv(curve_points(args.s_range, args.d_bound)))
    return EXIT_OK


# -- spectral -----------------------------------------------------------------

def _cmd_spectral(args, manifest: _Manifest) -> int:
    _ensure_seed(args)
    config = _config(
        _cli.SpectralConfig,
        s=args.s,
        N=args.N,
        a=args.a,
        trials=args.trials,
        seed=args.seed,
    )
    estimate = _cli.estimate_z_inverse(config)
    print(
        f"s={args.s} N={args.N} a={args.a} trials={args.trials} seed={args.seed}"
    )
    print(f"norms: {', '.join(f'{x:.6g}' for x in estimate.norms)}")
    print(
        f"mean = {estimate.mean:.6g}  std = {estimate.std:.3e}  "
        f"free limit = {_cli.free_limit(args.s, args.a):.6g}"
    )
    manifest.add("spectral.csv", write_spectral_csv(estimate))
    manifest.add("spectral_summary.json", _json(spectral_summary(estimate)))
    if not estimate.all_converged:
        print("warning: some trials did not converge", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


# -- figure -------------------------------------------------------------------

def _cmd_figure(args, manifest: _Manifest) -> int:
    _ensure_seed(args)

    # bound curves: the a=1 prediction, its reciprocal display, and the
    # decay-corrected discriminant point, per generator count
    rows = []
    for s in args.s_range:
        z_free = free_radius(s, 1.0)
        z_disc = radius_from_discriminant(RadiusProblem(s=s, a=1.0, d_bound=args.d_bound))
        rows.append((s, 1.0 / z_free, z_free, 1.0 / z_disc))
    header = "# s  z_inv_free_a1  y_reciprocal  z_inv_disc_a1"
    manifest.add("figure_bounds.dat", _table(header, rows, " "))

    rows = []
    for s in args.s_range:
        est = _cli.estimate_z_inverse(
            _config(_cli.SpectralConfig, s=s, N=args.N, a=1.0, trials=args.trials, seed=args.seed)
        )
        rows.append((s, args.N, args.trials, est.mean, est.std))
    manifest.add("figure_spectral.dat", _table("# s  N  trials  mean_norm  std", rows, " "))

    sig = parse_signature("F2xF2")
    census = take_census(sig, range(2, args.max_length + 1, 2))
    rows = []
    for length in census.lengths():
        exact = float(census.entries[length].frequency)
        config = _config(
            _cli.SampleConfig, signature=sig, length=length, samples=args.samples, seed=args.seed
        )
        report = _cli.estimate_bad_frequency(config)
        lo, hi = report.wilson_interval_95
        rows.append((length, exact, float(report.frequency), lo, hi))
    header = "# length  exact_freq  sampled_freq  wilson_lo  wilson_hi"
    manifest.add("figure_decay.dat", _table(header, rows, " "))
    return EXIT_OK


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leinert",
        description="Bad-string statistics in products of free groups: "
        "exact censuses, Monte Carlo sampling, walk recurrences, radius "
        "bounds, and Haar-unitary norm experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_out(p):
        p.add_argument("--out", type=Path, default=None, help="output directory")

    p = sub.add_parser("census", help="exact bad-string counts by length")
    p.add_argument("--group", type=_signature, required=True)
    p.add_argument("--max-length", type=_max_length, default=12)
    add_out(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("sample", help="Monte Carlo bad-string frequencies")
    p.add_argument("--group", type=_signature, required=True)
    p.add_argument("--max-length", type=_max_length, default=12)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=None)
    add_out(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser(
        "verify-series", help="exact walk tables and recurrence residuals"
    )
    p.add_argument("--group", type=_signature, required=True)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--alpha0", type=_parse_rational, default=Fraction(0))
    p.add_argument(
        "--a",
        type=_parse_rational,
        default=None,
        help="per-generator weight; default fills probability mode",
    )
    add_out(p)
    p.set_defaults(func=_cmd_verify_series)

    p = sub.add_parser("radius", help="discriminant breakdown radius")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d-bound", type=_parse_d_bound, default=DBound.zero())
    p.set_defaults(func=_cmd_radius)

    p = sub.add_parser("bounds", help="radius bound report and curve table")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d-bound", type=_parse_d_bound, default=DBound.zero())
    p.add_argument("--s-range", type=_parse_range, default=range(2, 9))
    add_out(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("spectral", help="Haar-unitary norm experiment")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--N", type=int, default=75)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=4)
    p.add_argument("--seed", type=int, default=None)
    add_out(p)
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("figure", help="emit the three figure data tables")
    p.add_argument("--s-range", type=_parse_range, default=range(2, 7))
    p.add_argument("--N", type=int, default=40)
    p.add_argument("--trials", type=int, default=2)
    p.add_argument("--samples", type=int, default=20_000)
    p.add_argument("--max-length", type=_max_length, default=12)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--d-bound", type=_parse_d_bound, default=DBound.zero())
    p.add_argument("--out", type=Path, default=Path("figures"))
    p.set_defaults(func=_cmd_figure)

    return parser


# run parses with one parser per process: on a 2-vCPU VM building one took
# 1.6-4 ms, a quarter to a third of a whole verify-series run
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    # OpenBLAS reads this once, when numpy loads, and the subcommands that use
    # numpy load it after this line.  By default it runs a thread per core,
    # but the products here are small (75x75 in spectral, 40x40 in figure).
    # On a 2-vCPU VM, spectral --s 2 used 0.57 s of CPU on two threads and
    # 0.33 s on one, in about the same wall time, and import numpy took 0.17 s
    # against 0.09 s.  A value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    manifest = _Manifest(args.subcommand)
    try:
        code = args.func(args, manifest)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    # radius has no --out; every other subcommand's texts go to disk here
    out = getattr(args, "out", None)
    if out is not None:
        manifest.write(out, args)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
