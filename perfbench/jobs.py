"""The benchmark's workloads: the CLI jobs of one pass and their output checks.

A job is one `leinert` CLI invocation.  Its check reads what the invocation
wrote under its `--out` directory and returns a list of problems; an empty
list means the job's outputs are correct.  Checks are pure functions of the
files, so the harness can also run them on a deliberately corrupted copy to
show that they catch damage.

This module imports nothing from `leinert`: the harness process stays free of
the program, and only the pass processes load it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

Check = Callable[["Job", Path, str], list]


@dataclass(frozen=True)
class Job:
    """One CLI invocation of a pass.

    `args` are the subcommand and its flags; the pass adds `--out` and, for
    seeded jobs, `--seed`.  `output` names the file the check reads first;
    `repeatable` asks that two passes at one seed write it byte for byte.
    """

    id: str
    args: tuple
    output: str
    check: Check
    seeded: bool = False
    repeatable: bool = False

    def argv(self, out_root: Path, seed: int) -> list:
        argv = [*self.args, "--out", str(out_root / self.id)]
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(job_dir: Path) -> list:
    """The manifest exists and every output it lists has the recorded digest."""
    manifest = job_dir / "manifest.json"
    if not manifest.is_file():
        return [f"{manifest.name} missing"]
    try:
        outputs = json.loads(manifest.read_text())["outputs"]
    except (ValueError, KeyError) as exc:
        return [f"manifest unreadable: {exc!r}"]
    problems = []
    for name, digest in outputs.items():
        path = job_dir / name
        if not path.is_file():
            problems.append(f"{name} listed in manifest but missing")
        elif sha256(path) != digest:
            problems.append(f"{name} does not match its manifest digest")
    return problems


def _read_rows(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


# -- census-exact -------------------------------------------------------------

# sha256 of census.csv per job, from the parent commit of the benchmark.  The
# exact subcommands promise byte-identical output, so any change is a failure.
CENSUS_DIGESTS = {
    "census-F2xF2-16": "7147d78f4a58ad880fa34d29fded8e37c8441d7e491b13511174b82cb88c256a",
    "census-F2xF2xF2-10": "60ae10337a2b2dd4ae9579105c3cc8312f1b4bda3baa3fc5a8234923bb48ac32",
    "census-F2xF3-12": "09174613b1679ef58ea2903d8336eb2838fd0dc7e83b22cb7fde0874e7495642",
    "census-Z3-12": "e04bfcbf8e5b3a0709babcde2fb758733e03ccd85aa140aa914c49e0e68d4036",
    "census-F1xF3-16": "45680987f124ea2776b0b6a12045164088aa0f7fa38c29ba4155859cb3987eac",
}

# length -> (bad, kernels) facts stated in the acceptance criteria
CENSUS_FACTS = {
    "census-F2xF2-16": {8: (16, 16)},
    "census-Z3-12": {6: (6, None)},
}


def check_census(job: Job, job_dir: Path, stdout: str) -> list:
    path = job_dir / job.output
    problems = []
    if sha256(path) != CENSUS_DIGESTS[job.id]:
        problems.append("census.csv differs from the pinned digest")
    rows = {int(r["length"]): r for r in _read_rows(path)}
    for length, (bad, kernels) in CENSUS_FACTS.get(job.id, {}).items():
        row = rows.get(length)
        if row is None or int(row["bad"]) != bad:
            problems.append(f"length {length}: expected {bad} bad strings")
        elif kernels is not None and int(row["kernels"]) != kernels:
            problems.append(f"length {length}: expected {kernels} kernels")
    return problems


# -- series-exact -------------------------------------------------------------

SERIES_DIGESTS = {
    "series-F2xF2-a0": "3bd91a796196336b5c669b009f2143785e90951d50509e862f5984bb50fab55e",
    "series-F2xF2-lazy": "6d746e54b5269b487840c51dba574cb046e0a705617651c3a07acf5c09ffb15c",
    "series-F1xF1": "13bf3d11d023b2b9d109e90ceb221175a0006134387b1f0712871fad702cfa55",
}

# Residuals that must vanish identically.  F2xF2 has bad strings, so its
# avoiding and excursion-split residuals pick up the kernel weight and are
# not checked; F1xF1 has none, so every residual must be zero.
SERIES_ZERO = {
    "series-F2xF2-a0": ("even_return", "lagged_return", "reciprocal_relation"),
    "series-F2xF2-lazy": ("even_return", "lagged_return", "reciprocal_relation"),
    "series-F1xF1": None,
}


def check_series(job: Job, job_dir: Path, stdout: str) -> list:
    path = job_dir / job.output
    problems = []
    if sha256(path) != SERIES_DIGESTS[job.id]:
        problems.append("series_tables.json differs from the pinned digest")
    payload = json.loads(path.read_text())
    residuals = dict(payload["recurrence_residuals"])
    residuals.update(payload["series"]["residuals"])
    names = SERIES_ZERO[job.id] or tuple(residuals)
    for name in names:
        if name not in residuals:
            problems.append(f"residual {name} missing")
        elif Fraction(residuals[name]) != 0:
            problems.append(f"residual {name} = {residuals[name]}, expected 0")
    return problems


# -- monte-carlo --------------------------------------------------------------

# Enumerated F2xF2 frequencies (census ground truth) the samples must cover.
F2XF2_EXACT = {8: Fraction(16, 8748), 10: Fraction(32, 78732), 12: Fraction(144, 708588)}
WIDE_Z = 5.0
SAMPLES = 500_000
SAMPLE_LENGTHS = list(range(2, 13, 2))


def wilson(successes: int, trials: int, z: float) -> tuple:
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


def check_sample(job: Job, job_dir: Path, stdout: str) -> list:
    rows = _read_rows(job_dir / job.output)
    problems = []
    if [int(r["length"]) for r in rows] != SAMPLE_LENGTHS:
        problems.append("sample.csv lengths are not 2..12")
        return problems
    for r in rows:
        length, samples, bad = int(r["length"]), int(r["samples"]), int(r["bad"])
        if samples != SAMPLES:
            problems.append(f"length {length}: {samples} samples, expected {SAMPLES}")
        elif length <= 6 and bad:
            problems.append(f"length {length}: {bad} bad samples, expected 0")
        elif length in F2XF2_EXACT:
            lo, hi = wilson(bad, samples, WIDE_Z)
            if not lo <= F2XF2_EXACT[length] <= hi:
                problems.append(
                    f"length {length}: {bad}/{samples} excludes the enumerated "
                    f"{F2XF2_EXACT[length]} at z={WIDE_Z}"
                )
    return problems


def free_limit(s: int, a: float) -> float:
    # computed here rather than imported, so the check does not trust the program
    return 2.0 * a if s == 1 else 2.0 * a * math.sqrt(2.0 * s - 1.0)


# criterion 9: the trial mean sits within this share of the free limit
SPECTRAL_TOLERANCE = {1: 0.02, 2: 0.05}


def check_spectral(job: Job, job_dir: Path, stdout: str) -> list:
    s, n = int(_flag(job, "--s")), int(_flag(job, "--N"))
    trials = int(_flag(job, "--trials"))
    rows = _read_rows(job_dir / job.output)
    problems = []
    if [(int(r["s"]), int(r["N"]), int(r["trial"])) for r in rows] != [
        (s, n, t) for t in range(trials)
    ]:
        return ["spectral.csv rows do not match the job's s, N and trials"]
    a = float(rows[0]["a"])
    norms = [float(r["norm"]) for r in rows]
    ceiling = 2.0 * s * a
    if any(x > ceiling * (1.0 + 1e-9) for x in norms):
        problems.append(f"a norm exceeds the ceiling 2sa = {ceiling}")
    mean = sum(norms) / len(norms)
    limit = free_limit(s, a)
    share = abs(mean - limit) / limit
    if share > SPECTRAL_TOLERANCE[s]:
        problems.append(
            f"mean norm {mean:.6f} is {share:.2%} from {limit:.6f}, "
            f"beyond {SPECTRAL_TOLERANCE[s]:.0%}"
        )
    return problems


_REPORT_RE = re.compile(r"^r_(lower|upper) = (\S+)", re.M)


def check_bounds(job: Job, job_dir: Path, stdout: str) -> list:
    problems = []
    report = {k: float(v) for k, v in _REPORT_RE.findall(stdout)}
    if set(report) != {"lower", "upper"}:
        problems.append("r_lower/r_upper not printed")
    elif not report["lower"] <= report["upper"]:
        problems.append(f"r_lower {report['lower']} > r_upper {report['upper']}")
    lo, hi = (int(x) for x in _flag(job, "--s-range").split(":"))
    rows = _read_rows(job_dir / job.output)
    if [int(r["s"]) for r in rows] != list(range(lo, hi + 1)):
        problems.append("curve_points.csv rows do not cover the s range")
    for r in rows:
        if not float(r["z_lower"]) <= float(r["z_upper"]):
            problems.append(f"s={r['s']}: z_lower > z_upper")
    return problems


def _flag(job: Job, name: str) -> str:
    return job.args[job.args.index(name) + 1]


def _census(group: str, max_length: int) -> Job:
    return Job(
        f"census-{group}-{max_length}",
        ("census", "--group", group, "--max-length", str(max_length)),
        "census.csv",
        check_census,
    )


def _series(job_id: str, group: str, n_max: int, alpha0: str, a: str) -> Job:
    args = ("verify-series", "--group", group, "--n-max", str(n_max), "--alpha0", alpha0, "--a", a)
    return Job(job_id, args, "series_tables.json", check_series)


# Why these jobs: census-exact is dominated by the kernel check, with F1xF3 as
# the pure-DFS control; series-exact is Fraction arithmetic in the walk DP,
# lazy and non-lazy; monte-carlo is the seeded floating half (sampler,
# spectral, bounds) and uses normal forms on whole strings, not substrings.
WORKLOADS = {
    "census-exact": (
        _census("F2xF2", 16),
        _census("F2xF2xF2", 10),
        _census("F2xF3", 12),
        _census("Z3", 12),
        _census("F1xF3", 16),
    ),
    "series-exact": (
        _series("series-F2xF2-a0", "F2xF2", 5, "0", "1/8"),
        _series("series-F2xF2-lazy", "F2xF2", 5, "1/9", "1/9"),
        _series("series-F1xF1", "F1xF1", 6, "0", "1/4"),
    ),
    "monte-carlo": (
        Job(
            "sample-F2xF2-12",
            ("sample", "--group", "F2xF2", "--max-length", "12", "--samples", str(SAMPLES)),
            "sample.csv",
            check_sample,
            seeded=True,
            repeatable=True,
        ),
        Job(
            "spectral-s2-N75",
            ("spectral", "--s", "2", "--N", "75", "--trials", "4"),
            "spectral.csv",
            check_spectral,
            seeded=True,
        ),
        Job(
            "spectral-s1-N75",
            ("spectral", "--s", "1", "--N", "75", "--trials", "4"),
            "spectral.csv",
            check_spectral,
            seeded=True,
        ),
        Job(
            "bounds-s2",
            ("bounds", "--s", "2", "--a", "0.25", "--d-bound", "R=2", "--s-range", "2:8"),
            "curve_points.csv",
            check_bounds,
            repeatable=True,
        ),
    ),
}


def check_job(job: Job, job_dir: Path, rc: int, stdout: str) -> list:
    """Every problem with one job's exit code and written outputs."""
    if rc != 0:
        return [f"exit code {rc}"]
    problems = check_manifest(job_dir)
    if not (job_dir / job.output).is_file():
        return problems + [f"{job.output} missing"]
    try:
        problems += job.check(job, job_dir, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"{job.output} unreadable: {exc!r}")
    return problems
