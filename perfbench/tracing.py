"""Spans around the calls into each `leinert` layer, and the per-layer metrics.

A traced pass replaces the public functions the CLI calls (and a few the
layers call on each other) with wrappers that open a span, call the original
and close the span.  The wrappers live here, in the benchmark; the program
itself is not changed.  Spans are kept in memory as
`[name, start, end, parent, job, attrs]` lists and written once when the pass
ends.  The layer is the part of a span name before the first dot; a job span
is named `cli.run`.

`layer_metrics` turns the spans of one traced pass into the benchmark's
per-layer metrics.  Self time is a span's duration minus the time its child
spans cover, so the self times of a job's spans add up to the job's duration.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

NAME, START, END, PARENT, JOB, ATTRS = range(6)
JOB_SPAN = "cli.run"
LAYERS = ("groups", "census", "sampler", "series", "spectral", "bounds", "cli")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def open(self, name: str, job: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if job is None and parent is not None:
            job = self.spans[parent][JOB]
        self.spans.append([name, time.perf_counter(), None, parent, job, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, job: str | None = None):
        index = self.open(name, job)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, name: str, observe=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                self.spans[index][ATTRS] = observe(result)
            return result

        return traced


def _census_counts(census) -> dict:
    entries = census.entries.values()
    return {
        "bad": sum(e.bad for e in entries),
        "kernels": sum(e.kernels for e in entries),
        "valid": sum(e.total_valid for e in entries),
    }


def _sample_counts(report) -> dict:
    by_test = {t.value: n for t, n in report.rejections.items()}
    return {
        "samples": report.config.samples,
        "bad": report.bad_count,
        "parity_rejected": by_test.get("parity", 0),
        "adjacent_rejected": by_test.get("adjacent_repeat", 0),
    }


def _spectral_counts(estimate) -> dict:
    cfg = estimate.config
    return {
        "s": cfg.s,
        "N": cfg.N,
        "trials": len(estimate.norms),
        "iterations": list(estimate.iterations),
        "converged": sum(estimate.converged),
    }


def install(tracer: Tracer) -> None:
    """Route the layer entry points through span-recording wrappers.

    The CLI imported its layer functions by name, so they are replaced in
    `leinert.cli`; calls one layer makes into another go through the callee's
    name in the caller's module, so those are replaced there.
    """
    from leinert import bounds, census, cli, spectral

    targets = [
        (cli, "take_census", "census.take_census", _census_counts),
        (cli, "write_census_csv", "census.write_census_csv", None),
        (census, "is_kernel", "groups.is_kernel", None),
        (cli, "parse_signature", "groups.parse_signature", None),
        (cli, "estimate_bad_frequency", "sampler.estimate_bad_frequency", _sample_counts),
        (cli, "dp_tables", "series.dp_tables", None),
        (cli, "verify_recurrences", "series.verify_recurrences", None),
        (cli, "generating_functions", "series.generating_functions", None),
        (cli, "tables_to_json", "series.tables_to_json", None),
        (cli, "bundle_to_json", "series.bundle_to_json", None),
        (cli, "estimate_z_inverse", "spectral.estimate_z_inverse", _spectral_counts),
        (spectral, "haar_unitary", "spectral.haar_unitary", None),
        (spectral, "two_norm", "spectral.two_norm", None),
        (cli, "free_limit", "spectral.free_limit", None),
        (cli, "write_spectral_csv", "spectral.write_spectral_csv", None),
        (cli, "spectral_summary", "spectral.spectral_summary", None),
        (cli, "bound_report", "bounds.bound_report", None),
        (bounds, "bound_report", "bounds.bound_report", None),
        (cli, "curve_points", "bounds.curve_points", None),
        (cli, "write_curve_csv", "bounds.write_curve_csv", None),
    ]
    for module, attr, name, observe in targets:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, observe))


# -- parent side: spans -> metrics --------------------------------------------


def self_times(spans: list) -> list:
    """Self time of every span; raises ValueError if spans do not nest."""
    covered = [0.0] * len(spans)
    last_end: dict = {}
    for i, sp in enumerate(spans):
        if sp[END] is None or sp[END] < sp[START]:
            raise ValueError(f"span {i} ({sp[NAME]}) is not closed properly")
        parent = sp[PARENT]
        if parent is None:
            continue
        up = spans[parent]
        if not (up[START] <= sp[START] and sp[END] <= up[END]):
            raise ValueError(f"span {i} ({sp[NAME]}) leaves its parent {up[NAME]}")
        if sp[START] < last_end.get(parent, up[START]):
            raise ValueError(f"span {i} ({sp[NAME]}) overlaps its sibling")
        last_end[parent] = sp[END]
        covered[parent] += sp[END] - sp[START]
    selfs = [sp[END] - sp[START] - c for sp, c in zip(spans, covered)]
    if min(selfs, default=0.0) < -1e-9:
        raise ValueError("negative self time")
    return selfs


def _total(spans: list, name: str, job: str | None = None) -> float:
    return sum(
        sp[END] - sp[START]
        for sp in spans
        if sp[NAME] == name and (job is None or sp[JOB] == job)
    )


def _attrs(spans: list, name: str) -> list:
    return [sp[ATTRS] for sp in spans if sp[NAME] == name and sp[ATTRS]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, job_ids: list, growth_job: str | None) -> tuple:
    """Per-layer metrics of one traced pass, and the accounting of its jobs.

    Timings `<layer>.<function>_s` are inclusive durations summed over calls.
    The accounting dict gives each layer's self time inside the job spans;
    with `cli` (the job spans' own self time) they add up to the job time.
    """
    selfs = self_times(spans)
    in_jobs = [i for i, sp in enumerate(spans) if sp[JOB] in job_ids]
    account = {layer: 0.0 for layer in LAYERS}
    for i in in_jobs:
        account[spans[i][NAME].split(".", 1)[0]] += selfs[i]
    job_time = sum(spans[i][END] - spans[i][START] for i in in_jobs if spans[i][NAME] == JOB_SPAN)

    census = _attrs(spans, "census.take_census")
    samples = _attrs(spans, "sampler.estimate_bad_frequency")
    spectral = _attrs(spans, "spectral.estimate_z_inverse")
    n_samples = sum(a["samples"] for a in samples)
    survivors = n_samples - sum(a["parity_rejected"] for a in samples)
    bad = sum(a["bad"] for a in samples)
    draw = _total(spans, "probe.sampler.draw")
    parity = _total(spans, "probe.sampler.parity")
    full = _total(spans, "sampler.estimate_bad_frequency")
    iters = sum(sum(a["iterations"]) for a in spectral)
    two_norm = _total(spans, "spectral.two_norm")
    gflop = sum(2 * sum(a["iterations"]) * 2 * a["s"] * 8 * a["N"] ** 3 for a in spectral) / 1e9
    growth_den = _total(spans, "probe.series.dp_tables_previous")

    metrics = {
        "groups.is_kernel_s": _total(spans, "groups.is_kernel"),
        "groups.is_kernel_calls": sum(sp[NAME] == "groups.is_kernel" for sp in spans),
        "census.take_census_s": _total(spans, "census.take_census"),
        "census.dfs_s": _total(spans, "probe.census.dfs"),
        "census.bad_strings": sum(a["bad"] for a in census),
        "census.kernels": sum(a["kernels"] for a in census),
        "census.valid_covered": sum(a["valid"] for a in census),
        "sampler.draw_s": draw,
        "sampler.parity_s": parity - draw,
        "sampler.reduce_s": full - parity,
        "sampler.samples": n_samples,
        "sampler.parity_survivors": survivors,
        "sampler.adjacent_rejected": sum(a["adjacent_rejected"] for a in samples),
        "sampler.bad": bad,
        "sampler.reduce_yield": _ratio(bad, survivors),
        "series.dp_tables_s": _total(spans, "series.dp_tables"),
        "series.verify_s": _total(spans, "series.verify_recurrences"),
        "series.gf_s": _total(spans, "series.generating_functions"),
        "series.serialize_s": _total(spans, "series.tables_to_json")
        + _total(spans, "series.bundle_to_json"),
        "series.dp_growth": _ratio(_total(spans, "series.dp_tables", growth_job), growth_den),
        "spectral.haar_s": _total(spans, "spectral.haar_unitary"),
        "spectral.two_norm_s": two_norm,
        "spectral.power_iters": iters,
        "spectral.matvecs": 2 * iters,
        "spectral.matvec_us": _ratio(two_norm, 2 * iters) * 1e6,
        "spectral.gflop_computed": gflop,
        "spectral.gflops": _ratio(gflop, two_norm),
        "spectral.converged_share": _ratio(
            sum(a["converged"] for a in spectral), sum(a["trials"] for a in spectral)
        ),
        "bounds.bound_report_s": _total(spans, "bounds.bound_report"),
        "bounds.curve_points_s": _total(spans, "bounds.curve_points"),
        "bounds.calls": sum(sp[NAME] == "bounds.bound_report" for sp in spans),
        "cli.self_s": account["cli"],
    }
    return metrics, {"job_s": job_time, "self_s": account}
