"""Benchmark harness for the `leinert` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Workloads and their output checks are in `jobs.py`.

A run runs passes until the next one would end after `--seconds` (at least
two); before each pass it starts the interpreter twice without work, to
measure set-up time.  Each pass is a fresh `passrun.py` process running
every job of the workload once, in order; the harness runs one process at a
time.  Passes
come in pairs at one program seed, `1000 * seed + pair`: the pair's second
pass must write the same bytes as its first for repeatable outputs, and
successive pairs spread the seeded work of `monte-carlo` over several seeds.

With `--trace 0` the end-to-end metrics are the medians over passes.  With
`--trace 1` every pair is an untraced pass and a traced one, and the
per-layer metrics are medians over the traced passes; `trace.overhead_s` is
the traced median minus the untraced one.  Every job's exit code and outputs
are checked in both modes.  The human-readable report and the run's full
record goes to `perfbench/out/<run>/result.json`; the last stdout line is
the JSON result.  NOTES.md describes the workloads, checks and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs as workloads  # noqa: E402
import tracing  # noqa: E402

SETUPS_PER_PASS = 2
MIN_PASSES = 2
# a pass still running this long after --seconds is killed and the run fails
OVERRUN_S = 130.0
ROADMAP_POINT_TOLERANCE = 0.25


class HarnessError(RuntimeError):
    """The benchmark itself could not run: no result is printed."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload, seed, out, result, deadline, trace=False, setup_only=False) -> dict:
    """Run one pass process; returns its result with `setup_s` added."""
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--result", str(result)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    started = monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError("pass process overran the run's time limit") from exc
    if proc.returncode != 0 or not result.is_file():
        raise HarnessError(f"pass process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    data = json.loads(result.read_text())
    data["setup_s"] = data["ready"] - started
    return data


def bytes_written(job_dir: Path) -> int:
    """Bytes of the manifest and of every output it lists."""
    manifest = job_dir / "manifest.json"
    if not manifest.is_file():
        return 0
    names = json.loads(manifest.read_text())["outputs"]
    return manifest.stat().st_size + sum((job_dir / n).stat().st_size for n in names)


def corrupt_self_check(jobs, pass_dir: Path, scratch: Path) -> list:
    """Damage each job's main output and require its check to notice.

    One digit after the header line is changed and the manifest digest is
    updated to match, so only the content check can catch the damage.
    """
    problems = []
    for job in jobs:
        src, dst = pass_dir / job.id, scratch / job.id
        shutil.copytree(src, dst)
        path = dst / job.output
        text = path.read_text()
        at = next(i for i in range(text.index("\n"), len(text)) if text[i].isdigit())
        text = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
        path.write_text(text)
        manifest = json.loads((dst / "manifest.json").read_text())
        manifest["outputs"][job.output] = workloads.sha256(path)
        (dst / "manifest.json").write_text(json.dumps(manifest))
        stdout = (dst / "stdout.txt").read_text()
        if not workloads.check_job(job, dst, 0, stdout):
            problems.append(f"{job.id}: the check passed a corrupted {job.output}")
    return problems


def tail(values: list):
    """Highest percentile with at least ten samples beyond it.

    None below 20 samples, where that percentile would not lie above the
    median.
    """
    n = len(values)
    if n < 20:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def roadmap_pointers(workload: str, spans: list, pass_seed: int) -> list:
    """The ROADMAP's single-run pointers against one traced pass."""

    def job_total(name, job):
        return sum(sp[tracing.END] - sp[tracing.START] for sp in spans
                   if sp[tracing.NAME] == name and sp[tracing.JOB] == job)

    def point(name, roadmap, measured):
        ok = abs(measured - roadmap) <= ROADMAP_POINT_TOLERANCE * roadmap
        return {"pointer": name, "roadmap": roadmap, "measured": measured, "match": ok}

    def interval(name, lo, hi, measured):
        ok = all(lo <= m <= hi for m in measured) if isinstance(measured, list) else lo <= measured <= hi
        return {"pointer": name, "roadmap": [lo, hi], "measured": measured, "match": ok}

    out = []
    if workload == "census-exact":
        census = sum(job_total("census.take_census", j.id) for j in workloads.WORKLOADS[workload])
        kernel = sum(job_total("groups.is_kernel", j.id) for j in workloads.WORKLOADS[workload])
        out.append(interval("kernel check share of take_census", 0.85, 0.94, kernel / census))
        out.append(point("F2xF2 census, lengths 2..16, s", 1.69, job_total("census.take_census", "census-F2xF2-16")))
        out.append(point("F2xF2 DFS alone, lengths 2..16, s", 0.20, job_total("probe.census.dfs", "probe:census-F2xF2-16")))
    elif workload == "series-exact":
        out.append(point("dp_tables F2xF2 n_max 5, s", 3.1, job_total("series.dp_tables", "series-F2xF2-a0")))
    elif workload == "monte-carlo":
        per_trial = [a["iterations"] for sp in spans if sp[tracing.NAME] == "spectral.estimate_z_inverse"
                     for a in [sp[tracing.ATTRS]] if a["s"] == 2][0]
        entry = interval("power iterations per trial, s=2 N=75 seed 0", 235, 445, per_trial)
        if pass_seed != 0:
            entry["match"] = None  # the pointer was taken at seed 0 only
        out.append(entry)
        rejected = sum(sp[tracing.ATTRS]["adjacent_rejected"] for sp in spans
                       if sp[tracing.NAME] == "sampler.estimate_bad_frequency")
        out.append({"pointer": "ADJACENT_REPEAT rejections", "roadmap": 0,
                    "measured": rejected, "match": rejected == 0})
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def declared_metrics() -> tuple:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(args) -> dict:
    begin = monotonic()
    deadline = begin + args.seconds + OVERRUN_S
    jobs = workloads.WORKLOADS[args.workload]
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    starts = itertools.count()

    def setup_spawn() -> float:
        data = spawn(args.workload, args.seed, out / "setup", out / f"setup{next(starts)}.json",
                     deadline, setup_only=True)
        return data["setup_s"]

    # The first start compiles bytecode and warms the file cache; users pay
    # that once per install, so it is not a set-up sample.  The samples are
    # spread over the run, between passes, because the machine's speed
    # drifts over seconds and one block of starts would see one state of it.
    setups = []
    setup_spawn()
    passes, cycles, problems, harness = [], [], {}, []
    repeat_digests = {}
    while len(passes) < MIN_PASSES or (
        monotonic() - begin + max(cycles[-2:]) <= args.seconds
    ):
        cycle_start = monotonic()
        setups += [setup_spawn() for _ in range(SETUPS_PER_PASS)]
        k = len(passes)
        pass_seed = 1000 * args.seed + k // 2
        traced = bool(args.trace) and k % 2 == 1
        pass_dir = out / f"pass{k}"
        data = spawn(args.workload, pass_seed, pass_dir, out / f"pass{k}.json",
                     deadline, trace=traced)
        data.update(index=k, seed=pass_seed, traced=traced)
        for job, rc in zip(jobs, data["codes"]):
            job_dir = pass_dir / job.id
            found = workloads.check_job(job, job_dir, rc, (job_dir / "stdout.txt").read_text())
            if job.repeatable and not found:
                digest = workloads.sha256(job_dir / job.output)
                first = repeat_digests.setdefault((job.id, pass_seed), digest)
                if first != digest:
                    found.append(f"{job.output} differs from the earlier pass at seed {pass_seed}")
            if found:
                problems[f"pass{k}/{job.id}"] = found
        data["bytes_written"] = sum(bytes_written(pass_dir / j.id) for j in jobs)
        data["series_json_bytes"] = sum(
            (pass_dir / j.id / j.output).stat().st_size for j in jobs
            if j.output == "series_tables.json" and (pass_dir / j.id / j.output).is_file()
        )
        passes.append(data)
        cycles.append(monotonic() - cycle_start)
        if k == 0:
            passed = [j for j in jobs if f"pass0/{j.id}" not in problems]
            harness += corrupt_self_check(passed, pass_dir, out / "selfcheck")

    plain = [p for p in passes if not p["traced"]]
    solve = [p["solve_s"] for p in plain]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "commit": commit(),
            "src_sha256": source_digest(),
            "python": passes[0]["python"],
            "numpy": passes[0]["numpy"],
            "blas_threads": passes[0]["blas_threads"],
            "nproc": passes[0]["nproc"],
            "workload_seed": args.seed,
            "pass_seeds": sorted({p["seed"] for p in passes}),
            "passes": len(plain),
            "traced_passes": len(passes) - len(plain),
        },
        "setup_samples_s": setups,
        "passes": [{k: v for k, v in p.items() if k not in ("spans", "ready")} for p in passes],
        "solve_tail": tail(solve),
        "problems": problems,
    }
    record["attempted"] = len(jobs) * len(passes)
    record["failed"] = len(problems)
    record["fail_rate"] = record["failed"] / record["attempted"]

    if args.trace:
        per_pass, accounting, pointers = [], [], []
        growth_job = next((j.id for j in jobs if j.output == "series_tables.json"), None)
        for p in passes:
            if not p["traced"]:
                continue
            try:
                metrics, account = tracing.layer_metrics(p["spans"], [j.id for j in jobs], growth_job)
            except ValueError as exc:
                harness.append(f"pass{p['index']}: {exc}")
                continue
            accounted = sum(account["self_s"].values())
            if abs(accounted - account["job_s"]) > 1e-6 * max(1.0, account["job_s"]):
                harness.append(f"pass{p['index']}: layer self times {accounted} != job time {account['job_s']}")
            if account["self_s"]["cli"] < 0:
                harness.append(f"pass{p['index']}: cli.self_s is negative")
            metrics["cli.bytes_written"] = p["bytes_written"]
            metrics["series.json_bytes"] = p["series_json_bytes"]
            per_pass.append(metrics)
            accounting.append(account)
            pointers.append(roadmap_pointers(args.workload, p["spans"], p["seed"]))
        if not per_pass:
            raise HarnessError("no traced pass produced usable spans")
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        traced_solve = [p["solve_s"] for p in passes if p["traced"]]
        metrics["trace.overhead_s"] = statistics.median(traced_solve) - statistics.median(solve)
        record.update(accounting=accounting, roadmap_pointers=pointers)
    else:
        metrics = {
            "solve_s": statistics.median(solve),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    record.update(metrics=metrics, harness_problems=harness)
    record["correct"] = not problems and not harness
    (out / "result.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    return record


def report(record: dict, units: dict) -> None:
    prov = record["provenance"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value in record["metrics"].items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    print(f"  {'fail_rate':<28} {record['fail_rate']:>14.6g} share"
          f"  ({record['failed']} of {record['attempted']} jobs)")
    tail_ = record["solve_tail"]
    if tail_:
        print(f"  solve_s p{tail_['percentile']:.1f} {tail_['value']:.6g} s over {prov['passes']} passes")
    else:
        print(f"  solve_s tail: {prov['passes']} passes; 20 are needed for a percentile with 10 beyond it")
    for pointers in record.get("roadmap_pointers", [])[:1]:
        for p in pointers:
            verdict = {True: "ok", False: "MISMATCH", None: "not comparable at this seed"}[p["match"]]
            print(f"  roadmap pointer: {p['pointer']}: roadmap {p['roadmap']}, measured {p['measured']} [{verdict}]")
    for where, found in record["problems"].items():
        print(f"  FAILED {where}: {'; '.join(found)}")
    for problem in record["harness_problems"]:
        print(f"  HARNESS {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "leinert" / "cli.py").is_file():
        print(f"no leinert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e, layers = declared_metrics()
    try:
        record = run(args)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    units = e2e if not args.trace else layers
    if set(record["metrics"]) != set(units):
        print(f"metrics {sorted(record['metrics'])} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    report(record, units)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
