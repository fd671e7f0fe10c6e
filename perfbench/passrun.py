"""One pass of a workload in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N --out DIR --result FILE
        [--trace] [--setup-only]

The harness (`run.py`) starts this once per pass.  It imports `leinert.cli`
from the checkout's `src/`, builds the job list, notes the monotonic clock
(the harness measures set-up time against it), then runs every job through
`leinert.cli.run` in order and times the whole pass.  CLI output goes to a
`stdout.txt` per job, written after the timed region.

With `--trace`, the layer functions are wrapped by `tracing.install` and,
after the timed jobs, the probes below run: calls that split a layer's time
into the stages the CLI cannot separate.  The spans go into the result file.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import jobs as workloads  # noqa: E402


def blas_threads():
    """OpenBLAS thread count of the numpy build, or None when unknown."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def run_probes(tracer, cli, jobs, argvs) -> None:
    """Stage probes of the traced pass, as spans with job id `probe:<job>`."""
    from leinert.census import iter_bad_strings
    from leinert.sampler import SampleConfig, TestKind, estimate_bad_frequency
    from leinert.series import WalkWeights, dp_tables

    growth_done = False
    for job, argv in zip(jobs, argvs):
        ns = cli.build_parser().parse_args(argv)
        probe = f"probe:{job.id}"
        if ns.subcommand == "census":
            # the depth-first search alone, without the kernel check
            for length in range(2, ns.max_length + 1, 2):
                with tracer.span("probe.census.dfs", job=probe):
                    for _ in iter_bad_strings(ns.group, length):
                        pass
        elif ns.subcommand == "sample":
            # draw only, then draw + parity; the full cascade is the job itself
            for length in range(2, ns.max_length + 1, 2):
                for name, tests in (("draw", ()), ("parity", (TestKind.PARITY,))):
                    config = SampleConfig(ns.group, length, ns.samples, ns.seed, tests=tests)
                    with tracer.span(f"probe.sampler.{name}", job=probe):
                        estimate_bad_frequency(config)
        elif ns.subcommand == "verify-series" and not growth_done:
            # the first series job again one n_max lower: the DP's growth
            weights = WalkWeights.uniform(ns.group, ns.a, ns.alpha0)
            with tracer.span("probe.series.dp_tables_previous", job=probe):
                dp_tables(ns.group, weights, ns.n_max - 1)
            growth_done = True


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import leinert
    import leinert.cli as cli

    if Path(leinert.__file__).resolve().parent != SRC / "leinert":
        print(f"leinert imported from {leinert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    jobs = workloads.WORKLOADS[args.workload]
    argvs = [job.argv(args.out, args.seed) for job in jobs]
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"ready": ready}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    def job_span(job_id):
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.span(tracing.JOB_SPAN, job=job_id)

    codes, texts, job_s = [], [], []
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for job, argv in zip(jobs, argvs):
        job_start = time.perf_counter()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                with job_span(job.id):
                    rc = cli.run(argv)
            except Exception:  # a crash is that job's failure, not the pass's
                rc = 1
                traceback.print_exc()
        codes.append(rc)
        texts.append(buf.getvalue())
        job_s.append(time.perf_counter() - job_start)
    solve = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    for job, text in zip(jobs, texts):
        job_dir = args.out / job.id
        job_dir.mkdir(parents=True, exist_ok=True)
        (job_dir / "stdout.txt").write_text(text)
    if tracer is not None:
        run_probes(tracer, cli, jobs, argvs)

    import numpy

    result.update(
        solve_s=solve,
        cpu_s=(after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        peak_rss_mb=after.ru_maxrss / 1024.0,
        codes=codes,
        job_s=job_s,
        spans=tracer.spans if tracer else None,
        python=platform.python_version(),
        numpy=numpy.__version__,
        blas_threads=blas_threads(),
        nproc=os.cpu_count(),
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
