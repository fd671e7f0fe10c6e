"""Command-line surface: exit codes, outputs, manifests."""

import argparse
import hashlib
import importlib
import json
import os
import runpy
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import leinert
from leinert import cli, sampler, spectral
from leinert.bounds import ConvergenceError
from leinert.cli import run


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert run(["census"]) == 2  # --group is required
        assert run(["no-such-command"]) == 2
        assert run([]) == 2
        # the census takes its limits from its own counts
        assert run(["census", "--group", "F2xF2", "--budget", "5"]) == 2

    def test_budget_failure_is_3(self, capsys):
        # the length limit refuses the search before the walk starts: the
        # valid prefixes at its middle step are over MAX_NODES
        started = time.perf_counter()
        assert run(["census", "--group", "F2xF2", "--max-length", "99"]) == 3
        assert time.perf_counter() - started < 1
        assert capsys.readouterr().err.splitlines() == [
            "budget exceeded: search on F2xF2 to length 98, valid prefixes at step 49: "
            "search-space bound 319065772307490039453444 exceeds budget 150000000"
        ]

    def test_convergence_failure_is_3(self, monkeypatch, capsys):
        def diverge(problem):
            raise ConvergenceError("fixed point diverged")

        monkeypatch.setattr("leinert.cli.bound_report", diverge)
        assert run(["bounds", "--s", "2", "--a", "0.25"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["convergence failure: fixed point diverged"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["sample", "--group", "F2xF2", "--samples", "0", "--seed", "1"],
                "error: samples must be >= 1",
            ),
            (
                ["sample", "--group", "F1", "--seed", "1"],
                "error: valid strings need at least two generators",
            ),
            (["radius", "--s", "2", "--a", "-1"], "error: a must be positive"),
            (["spectral", "--s", "2", "--N", "1", "--seed", "1"], "error: N must be >= 2"),
            (["spectral", "--s", "0", "--seed", "1"], "error: s must be >= 1"),
            (["spectral", "--s", "2", "--trials", "0", "--seed", "1"], "error: trials must be >= 1"),
            (
                ["spectral", "--s", "2", "--a", "0", "--seed", "1"],
                "error: a must be a positive finite number",
            ),
            (["census", "--group", "F1"], "error: valid strings need at least two generators"),
            (["census", "--group", "Z1"], "error: valid strings need at least two generators"),
            *(
                (
                    ["spectral", "--s", "2", "--N", "5", "--seed", "0", "--a", a],
                    "error: a must be a positive finite number",
                )
                for a in ("-1", "nan")
            ),
            (["radius", "--s", "2", "--a", "nan"], "error: a must be finite"),
            (["radius", "--s", "2", "--a", "inf"], "error: a must be finite"),
            (["bounds", "--s", "2", "--a", "nan"], "error: a must be finite"),
            (
                ["spectral", "--s", "2", "--N", "5", "--seed", "0", "--a", "1e308"],
                "error: a = 1e+308 is too large: the ceiling 2sa overflows a float",
            ),
            (
                ["spectral", "--s", "2", "--N", "5", "--seed", "0", "--a", "1e-310"],
                "error: a = 1e-310 is too small: the ceiling 2sa = 4e-310 is subnormal",
            ),
            (
                ["radius", "--s", "2", "--a", "1e-320"],
                "error: a = 1e-320 is out of range: free radius inf is not a positive finite number",
            ),
            (
                ["bounds", "--s", "2", "--a", "1e308"],
                "error: a = 1e+308 is out of range: free radius 0.0 is not a positive finite number",
            ),
            (
                ["sample", "--group", "F32769", "--seed", "1"],
                "error: letter codes are uint16: at most 32768 generators",
            ),
            (["radius", "--s", "0", "--a", "1"], "error: s must be >= 1"),
        ],
    )
    def test_bad_config_is_usage_error(self, argv, message, capsys):
        assert run(argv) == 2
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize(
        "text, radius",
        [("R=nan", "nan"), ("R=inf", "inf"), ("c=1e-320", "inf"), ("c=inf", "0.0")],
    )
    def test_bad_d_bound_is_usage_error(self, text, radius, capsys):
        assert run(["radius", "--s", "2", "--a", "1", "--d-bound", text]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith(
            f"argument --d-bound: bad d-bound {text!r}: "
            f"decay radius {radius} is not a positive finite number"
        )

    @pytest.mark.parametrize(
        "a, text", [("1", "R=1e-200"), ("1", "c=1e300"), ("1", "R=1e300"), ("1e307", "R=1e300")]
    )
    def test_extreme_decay_radius_answers(self, a, text, tmp_path, capsys):
        # R^2 under- or overflows a double; both subcommands answer anyway
        argv = ["--s", "2", "--a", a, "--d-bound", text]
        assert run(["radius", *argv]) == 0
        z = float(capsys.readouterr().out.splitlines()[1].split()[2])
        assert run(["bounds", *argv, "--out", str(tmp_path / "b")]) == 0
        lines = capsys.readouterr().out.splitlines()
        r_lower, r_upper = (float(line.split()[2]) for line in lines[1:3])
        assert 0 < r_lower <= z and r_lower <= r_upper

    def test_empty_s_range_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "b"
        argv = ["bounds", "--s", "2", "--a", "0.25", "--s-range", "5:2", "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith(
            "argument --s-range: empty range '5:2': need lo <= hi"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["bounds", "--s", "2", "--a", "0.25"], "0:3"),
            (["figure", "--seed", "1"], "0:2"),
        ],
        ids=["bounds", "figure"],
    )
    def test_s_range_below_one_is_usage_error(self, argv, text, tmp_path, capsys):
        # s = 0 used to reach a = 1/(2s) in bounds and sqrt(2s - 1) in figure
        out = tmp_path / "s0"
        assert run(argv + ["--s-range", text, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("usage: ")
        assert err.splitlines()[-1].endswith(
            f"argument --s-range: range '{text}' starts below s = 1"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "--group", "F2xF2"],
            ["sample", "--group", "F2xF2", "--seed", "1"],
            ["figure", "--seed", "1"],
        ],
        ids=["census", "sample", "figure"],
    )
    def test_max_length_below_two_is_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "m"
        assert run(argv + ["--max-length", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith(
            "argument --max-length: max length must be >= 2, got 1"
        )
        assert not out.exists()

    def test_refused_config_writes_nothing(self, tmp_path, capsys):
        # figure_bounds.dat is computed before the spectral config is refused
        out = tmp_path / "f"
        assert run(["figure", "--N", "1", "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: N must be >= 2"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["radius", "--s", "2", "--a", "0.25", "--out", "r"],
            ["census", "--group", "Z3", "--format", "csv"],
            ["census", "--group", "Z3", "--threads", "2"],
            ["spectral", "--s", "2", "--seed", "1", "--tol", "1e-6"],
        ],
        ids=["radius-out", "format", "threads", "tol"],
    )
    def test_retired_flags_are_usage_errors(self, argv):
        assert run(argv) == 2

    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_unreadable_group_is_usage_error(self, capsys):
        assert run(["census", "--group", "G3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "leinert census: error: argument --group: cannot parse group name 'G3'"


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# each subcommand with its required flags only, every other flag at its default
DEFAULT_ARGVS = [
    ["census", "--group", "F2xF2"],
    ["sample", "--group", "F2xF2"],
    ["verify-series", "--group", "F2xF2"],
    ["radius", "--s", "2", "--a", "0.25"],
    ["bounds", "--s", "2", "--a", "0.25"],
    ["spectral", "--s", "2"],
    ["figure"],
]


def benchmark_argvs():
    # run_path compiles jobs.py without writing bytecode into perfbench/
    jobs = runpy.run_path(str(PERFBENCH / "jobs.py"))
    return [job.argv(Path("out"), 0) for workload in jobs["WORKLOADS"].values() for job in workload]


def parsed(parser, argv, capsys):
    """The Namespace, or the exit code, and what the parse printed."""
    try:
        result = parser.parse_args(argv)
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


class TestParser:
    """run builds the parser of the subcommand it runs; that parser must
    parse, help and refuse exactly as the full one does."""

    def test_subcommands(self):
        full = cli.build_parser()
        (sub,) = [a for a in full._actions if isinstance(a, argparse._SubParsersAction)]
        assert tuple(sub.choices) == cli.SUBCOMMANDS == tuple(argv[0] for argv in DEFAULT_ARGVS)
        for name in cli.SUBCOMMANDS:
            (sub,) = [
                a for a in cli.build_parser(name)._actions
                if isinstance(a, argparse._SubParsersAction)
            ]
            assert tuple(sub.choices) == (name,)

    @pytest.mark.parametrize(
        "argv",
        [
            *benchmark_argvs(),
            *DEFAULT_ARGVS,
            # help, and a refusal by the subcommand's parser and by the top one
            *([argv[0], "--help"] for argv in DEFAULT_ARGVS),
            *([argv[0], "--bogus"] for argv in DEFAULT_ARGVS),
            *(argv + ["extra"] for argv in DEFAULT_ARGVS),
            ["census", "--group", "G3"],
        ],
    )
    def test_one_subcommand_parses_as_the_full_parser(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        one = parsed(cli.build_parser(argv[0]), argv, capsys)
        assert one == parsed(cli.build_parser(), argv, capsys)
        if isinstance(one[0], argparse.Namespace):
            assert one[0].subcommand == argv[0] and one[1:] == ("", "")

    def test_run_builds_the_named_subcommand_only(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "_parser", lambda name: built.append(name) or cli.build_parser(name))
        assert run(["radius", "--s", "2", "--a", "0.25"]) == 0
        assert run(["--version"]) == 0
        assert run(["bogus"]) == 2
        assert built == ["radius", None, None]

    @pytest.mark.parametrize(
        "argv, code, stream, fragment",
        [
            ([], 2, "err", "error: the following arguments are required: subcommand"),
            (["--help"], 0, "out", "{census,sample,verify-series,radius,bounds,spectral,figure}"),
            (["--version"], 0, "out", "0.1.0"),
            (["bogus"], 2, "err", "error: argument subcommand: invalid choice: 'bogus'"),
        ],
    )
    def test_top_level(self, argv, code, stream, fragment, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(argv) == code
        out = capsys.readouterr()
        assert fragment in getattr(out, stream)
        assert (code, out.out, out.err) == parsed(cli.build_parser(), argv, capsys)


class TestCensus:
    def test_prints_table(self, capsys):
        assert run(["census", "--group", "F2xF2", "--max-length", "8"]) == 0
        out = capsys.readouterr().out
        assert "8748" in out and "16" in out

    def test_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "c"
        assert run(
            ["census", "--group", "F2xF2", "--max-length", "8", "--out", str(out)]
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "census"
        assert manifest["outputs"]["census.csv"] == digest(out / "census.csv")
        assert "duration_s" in manifest

    def test_byte_identical_reruns(self, tmp_path):
        args = ["census", "--group", "Z3", "--max-length", "8"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert (a / "census.csv").read_bytes() == (b / "census.csv").read_bytes()

    @pytest.mark.parametrize(
        "max_length, cap, bound",
        # at length 12, 9 * 16 + 11 * 32 + 13 * 144 = 2368; at 26 the default cap
        [(12, 2367, 2368), (26, 150_000_000, 197_930_864)],
    )
    def test_node_cap_refuses_before_the_search(self, max_length, cap, bound, monkeypatch, capsys):
        def no_search(*args, **kwargs):
            raise AssertionError("searched past the node cap")

        monkeypatch.setattr("leinert.census.MAX_NODES", cap)
        monkeypatch.setattr("leinert.census._search", no_search)
        assert run(["census", "--group", "F2xF2", "--max-length", str(max_length)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"budget exceeded: search on F2xF2 to length {max_length}: "
            f"search-space bound {bound} exceeds budget {cap}"
        ]

    def test_reaches_length_24(self, tmp_path):
        out = tmp_path / "c"
        assert run(["census", "--group", "F2xF2", "--max-length", "24", "--out", str(out)]) == 0
        rows = [line.split(",")[:4] for line in (out / "census.csv").read_text().splitlines()]
        assert rows[-3:] == [
            ["20", "4649045868", "59520", "14240"],
            ["22", "41841412812", "271232", "52448"],
            ["24", "376572715308", "1266176", "172608"],
        ]

    @pytest.mark.parametrize("group, max_length", [("F2xF1", "52"), ("F3", "99"), ("F1xF1", "4000")])
    def test_no_bad_strings_without_a_walk(self, group, max_length, tmp_path):
        # these products have no bad string, so no walk runs and no length
        # limit applies
        out = tmp_path / "c"
        started = time.perf_counter()
        assert run(["census", "--group", group, "--max-length", max_length, "--out", str(out)]) == 0
        assert time.perf_counter() - started < 1
        header, *rows = (out / "census.csv").read_text().splitlines()
        assert len(rows) == int(max_length) // 2
        assert all(row.split(",")[2:] == ["0", "0", "0"] for row in rows)

    def test_class_cap_is_budget_failure(self, monkeypatch, capsys):
        # the census runs the series walk, so the walk's class cap binds it too
        monkeypatch.setattr("leinert.census.MAX_STATES", 10)
        assert run(["census", "--group", "F2xF2", "--max-length", "12"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("budget exceeded: walk on F2xF2, step ")

    def test_duration_times_the_run(self, tmp_path, monkeypatch):
        def slow_census(*args, **kwargs):
            time.sleep(0.2)
            return take_census(*args, **kwargs)

        take_census = cli.take_census
        monkeypatch.setattr(cli, "take_census", slow_census)
        out = tmp_path / "c"
        assert run(["census", "--group", "Z3", "--max-length", "4", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["duration_s"] >= 0.2


# sha256 of the exact and deterministic outputs.  The census and series
# digests are those the benchmark pins in perfbench/jobs.py.  spectral.csv
# and figure_spectral.dat are left out: their float digits depend on BLAS.
PINNED_FIGURE = [
    "figure", "--s-range", "2:5", "--N", "10", "--trials", "1", "--samples", "2000",
    "--max-length", "10", "--seed", "1", "--d-bound", "R=3",
]

PINNED_BYTES = [
    (
        ["census", "--group", "F2xF2", "--max-length", "16"],
        "census.csv",
        "7147d78f4a58ad880fa34d29fded8e37c8441d7e491b13511174b82cb88c256a",
    ),
    (
        ["census", "--group", "F2xF2xF2", "--max-length", "10"],
        "census.csv",
        "60ae10337a2b2dd4ae9579105c3cc8312f1b4bda3baa3fc5a8234923bb48ac32",
    ),
    (
        ["census", "--group", "F2xF3", "--max-length", "12"],
        "census.csv",
        "09174613b1679ef58ea2903d8336eb2838fd0dc7e83b22cb7fde0874e7495642",
    ),
    (
        ["census", "--group", "Z3", "--max-length", "12"],
        "census.csv",
        "e04bfcbf8e5b3a0709babcde2fb758733e03ccd85aa140aa914c49e0e68d4036",
    ),
    (
        ["census", "--group", "F1xF3", "--max-length", "16"],
        "census.csv",
        "45680987f124ea2776b0b6a12045164088aa0f7fa38c29ba4155859cb3987eac",
    ),
    (
        ["verify-series", "--group", "F2xF2", "--n-max", "5", "--alpha0", "0", "--a", "1/8"],
        "series_tables.json",
        "3bd91a796196336b5c669b009f2143785e90951d50509e862f5984bb50fab55e",
    ),
    (
        ["verify-series", "--group", "F2xF2", "--n-max", "5", "--alpha0", "1/9", "--a", "1/9"],
        "series_tables.json",
        "6d746e54b5269b487840c51dba574cb046e0a705617651c3a07acf5c09ffb15c",
    ),
    (
        ["verify-series", "--group", "F1xF1", "--n-max", "6", "--alpha0", "0", "--a", "1/4"],
        "series_tables.json",
        "13bf3d11d023b2b9d109e90ceb221175a0006134387b1f0712871fad702cfa55",
    ),
    (
        ["bounds", "--s", "2", "--a", "0.25", "--d-bound", "R=2", "--s-range", "2:8"],
        "curve_points.csv",
        "6c9bd6b883a2a5c45abd04e58776774a242ced7210429e20d860ba3e28df3d51",
    ),
    (
        ["sample", "--group", "F2xF2", "--max-length", "12", "--samples", "100000", "--seed", "7"],
        "sample.csv",
        "51ccc3590fe89afc69f6472402f1eb012e4eb2ea7164045c88ff863a0475a0e8",
    ),
    (
        PINNED_FIGURE,
        "figure_bounds.dat",
        "f85612b6bcf7f77001aadc92924e6df939d4b137dca693c2644db46c6f671595",
    ),
    (
        PINNED_FIGURE,
        "figure_decay.dat",
        "747285e25cbdac2ae375f6b8c20180c8a126ae86fa1e68ffe7140f70de6a7bd2",
    ),
]
PINNED_IDS = [
    "census-F2xF2-16",
    "census-F2xF2xF2-10",
    "census-F2xF3-12",
    "census-Z3-12",
    "census-F1xF3-16",
    "series-F2xF2-a0",
    "series-F2xF2-lazy",
    "series-F1xF1",
    "bounds-s2",
    "sample-F2xF2-12",
    "figure-bounds",
    "figure-decay",
]


class TestPinnedOutputs:
    @pytest.mark.parametrize("argv, name, sha256", PINNED_BYTES, ids=PINNED_IDS)
    def test_pinned_bytes(self, argv, name, sha256, tmp_path):
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 0
        assert digest(out / name) == sha256


# the subcommands that never need numpy, run with numpy unimportable: the
# pinned outputs come out byte for byte and radius prints what it printed
# when numpy was imported up front
NUMPY_FREE = """
import hashlib, io, json, sys
from contextlib import redirect_stdout
from pathlib import Path

import leinert, leinert.cli as cli

assert "numpy" not in sys.modules, "import leinert, leinert.cli loaded numpy"
sys.modules["numpy"] = None  # from here on, importing numpy raises ImportError
results = []
for argv, name in json.loads(sys.argv[1]):
    out = Path(sys.argv[2]) / str(len(results))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(argv + (["--out", str(out)] if name else []))
    data = (out / name).read_bytes() if name and code == 0 else b""
    results.append([code, hashlib.sha256(data).hexdigest() if name else buf.getvalue()])
print(json.dumps(results))
"""

RADIUS_STDOUT = [
    (
        ["radius", "--s", "2", "--a", "0.25", "--d-bound", "R=2"],
        "s=2 a=0.25 d-bound=radius_form\n"
        "z = 0.6886915516   (z^-1 = 1.452028848)\n"
        "all discriminant roots: 0.6886915516, 1.285802479\n",
    ),
    (
        ["radius", "--s", "3", "--a", "1", "--d-bound", "c=0.2"],
        "s=3 a=1.0 d-bound=geometric_rate\n"
        "z = 0.2214101397   (z^-1 = 4.516504986)\n"
        "all discriminant roots: 0.2214101397, 4.495748559\n",
    ),
    (
        ["radius", "--s", "2", "--a", "0.25"],
        "s=2 a=0.25 d-bound=zero\nz = 1.154700538   (z^-1 = 0.8660254038)\n",
    ),
]


def run_python(script, *args, blas_threads=None):
    """Run script in a fresh interpreter importing this package, with
    OPENBLAS_NUM_THREADS set to blas_threads, or unset when that is None."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_exact_subcommands_run_without_numpy(tmp_path):
    exact = [
        (argv, name, sha) for argv, name, sha in PINNED_BYTES
        if argv[0] not in cli._NUMPY_SUBCOMMANDS
    ]
    assert {argv[0] for argv, _, _ in exact} == {"census", "verify-series", "bounds"}
    jobs = [(argv, name) for argv, name, _ in exact] + [(argv, None) for argv, _ in RADIUS_STDOUT]
    expected = [[0, sha] for _, _, sha in exact] + [[0, text] for _, text in RADIUS_STDOUT]
    # one interpreter runs them all through the parsers run keeps, one per
    # subcommand, from a usage error (its message goes to stderr) to the
    # first census again
    jobs = [(["census"], None)] + jobs + jobs[:1] + [(["census"], None)]
    expected = [[2, ""]] + expected + expected[:1] + [[2, ""]]
    stdout = run_python(NUMPY_FREE, json.dumps(jobs), str(tmp_path))
    assert json.loads(stdout) == expected


# the environment around a CLI run: before it, whether the run loaded numpy,
# and after it; with no argument, import alone
BLAS_ENV = """
import io, json, os, sys
from contextlib import redirect_stdout

import leinert, leinert.cli as cli

seen = [os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules]
if len(sys.argv) > 1:
    argv = ["spectral", "--s", "2", "--N", "8", "--trials", "1", "--seed", "0"]
    with redirect_stdout(io.StringIO()):
        assert cli.run(argv + ["--out", sys.argv[1]]) == 0
    seen.append("numpy" in sys.modules)
seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
print(json.dumps(seen))
"""


# spectral --s 2 and --s 1 through the CLI, keeping each run's estimate
SPECTRAL_RUNS = """
import io, json
from contextlib import redirect_stdout

import leinert.cli as cli

solve, estimates = cli.estimate_z_inverse, []
cli.estimate_z_inverse = lambda config: estimates.append(solve(config)) or estimates[-1]
with redirect_stdout(io.StringIO()):
    for s in ("2", "1"):
        assert cli.run(["spectral", "--s", s, "--seed", "0"]) == 0
print(json.dumps([{"norms": e.norms, "iterations": e.iterations} for e in estimates]))
"""


class TestBlasThreads:
    @pytest.mark.parametrize("given, used", [(None, "1"), ("2", "2")])
    def test_cli_runs_blas_on_one_thread_unless_told(self, given, used, tmp_path):
        # numpy loads only inside the run, after cli.run has set the variable
        stdout = run_python(BLAS_ENV, str(tmp_path), blas_threads=given)
        assert json.loads(stdout) == [given, False, True, used]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["blas_threads_env"] == used

    def test_import_leaves_the_environment_alone(self):
        assert json.loads(run_python(BLAS_ENV)) == [None, False, None]

    def test_manifest_seed(self, tmp_path):
        # the seed a run used, as a number; null where the subcommand has none
        for argv, seed in (
            (["census", "--group", "Z3", "--max-length", "4"], None),
            (["bounds", "--s", "2", "--a", "0.25"], None),
            (["sample", "--group", "F2xF2", "--max-length", "4", "--samples", "100",
              "--seed", "7"], 7),
        ):
            out = tmp_path / argv[0]
            assert run(argv + ["--out", str(out)]) == 0
            assert json.loads((out / "manifest.json").read_text())["seed"] == seed

    def test_manifest_records_it_only_where_numpy_runs(self, tmp_path):
        out = tmp_path / "c"
        assert run(["census", "--group", "Z3", "--max-length", "4", "--out", str(out)]) == 0
        assert "blas_threads_env" not in json.loads((out / "manifest.json").read_text())
        out = tmp_path / "s"
        argv = ["sample", "--group", "F2xF2", "--max-length", "4", "--samples", "100"]
        assert run(argv + ["--seed", "1", "--out", str(out)]) == 0
        assert "blas_threads_env" in json.loads((out / "manifest.json").read_text())

    def test_norms_do_not_depend_on_the_thread_count(self):
        # both solvers at the CLI's defaults (N=75, 4 trials), seed 0: Lanczos
        # for s = 2, eigenvalues for s = 1
        one_thread, two_threads = (
            json.loads(run_python(SPECTRAL_RUNS, blas_threads=threads)) for threads in "12"
        )
        assert len(one_thread) == len(two_threads) == 2
        for one, two in zip(one_thread, two_threads):
            assert one["iterations"] == two["iterations"]
            assert one["norms"] == pytest.approx(two["norms"], rel=1e-12, abs=0)


class TestLazyNames:
    # every name the package exported when it imported sampler and spectral
    # up front
    EXPORTED = {
        "bounds": "BoundReport ConvergenceError DBound DKind PastRadiusError RadiusProblem "
        "bound_report curve_points discriminant_roots eval_P eval_P_prime eval_Q "
        "free_radius quadratic_coeffs r_squared_closed_form radius_from_discriminant "
        "solve_G_upper woess_radius",
        "census": "BadStringCensus BudgetExceededError CensusEntry bad_count_length8_formula "
        "bad_count_length12_formula brute_force_return_walks composition_sum_identity "
        "compositions_count count_bad_exact first_return_formula fit_exponential_rate "
        "growth_rate iter_bad_strings iter_compositions return_walks_formula take_census "
        "valid_string_count walk_formula_comparison",
        "groups": "GroupSignature Letter MalformedWordError NormalForm Word is_kernel "
        "is_reduced_string is_simple_cycle normal_form parse_signature word_to_text",
        "sampler": "SampleConfig SampleReport StringModel estimate_bad_frequency "
        "estimate_decay_rate wilson_interval",
        "series": "ProbabilityTables Series SeriesBundle WalkWeights dp_tables "
        "generating_functions verify_recurrences",
        "spectral": "NormEstimate SpectralConfig apply_T estimate_z_inverse free_limit "
        "haar_unitary two_norm",
    }

    @pytest.mark.parametrize("module", sorted(EXPORTED))
    def test_exported_names_resolve(self, module):
        home = importlib.import_module(f"leinert.{module}")
        for name in self.EXPORTED[module].split():
            assert name in dir(leinert)
            assert getattr(leinert, name) is getattr(home, name)

    def test_cli_names_resolve(self):
        for name in ("SampleConfig", "estimate_bad_frequency"):
            assert getattr(cli, name) is getattr(sampler, name)
        for name in ("NormEstimate", "SpectralConfig", "estimate_z_inverse", "free_limit"):
            assert getattr(cli, name) is getattr(spectral, name)

    def test_free_limit_comes_without_numpy(self):
        # c = 2a sqrt(2s - 1) lives in bounds, so reading it loads no numpy
        script = (
            "import sys, leinert, leinert.cli as cli\n"
            "print(leinert.free_limit(5, 0.5), cli.free_limit(1), 'numpy' in sys.modules)\n"
        )
        assert run_python(script).split() == ["3.0", "2.0", "False"]

    def test_unknown_names_raise(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            leinert.no_such_name
        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name

    @pytest.mark.parametrize(
        "argv, names",
        [
            (
                ["sample", "--group", "F2xF2", "--max-length", "6", "--samples", "300"],
                {"estimate_bad_frequency": 3},
            ),
            (["spectral", "--s", "2", "--N", "4", "--trials", "1"], {"estimate_z_inverse": 1}),
            (
                [
                    "figure", "--s-range", "2:3", "--N", "4", "--trials", "1",
                    "--samples", "300", "--max-length", "6",
                ],
                {"estimate_z_inverse": 2, "estimate_bad_frequency": 3},
            ),
        ],
        ids=["sample", "spectral", "figure"],
    )
    def test_subcommands_call_the_cli_names(self, argv, names, monkeypatch, tmp_path):
        # a wrapper set on cli.<name> from outside is the function that runs
        calls = {name: 0 for name in names}

        def counting(name, fn):
            def wrapper(config):
                calls[name] += 1
                return fn(config)

            return wrapper

        for name in names:
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        assert run(argv + ["--seed", "1", "--out", str(tmp_path / "o")]) == 0
        assert calls == names


class TestSample:
    def test_with_seed(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run(
            [
                "sample", "--group", "F2xF2", "--max-length", "8",
                "--samples", "2000", "--seed", "7", "--out", str(out),
            ]
        ) == 0
        rows = (out / "sample.csv").read_text().splitlines()
        assert rows[0] == "length,samples,bad,freq,wilson_lo,wilson_hi"
        assert len(rows) == 5

    @pytest.mark.parametrize(
        "group, max_length, seed, sha256",
        [
            ("F2xF2", "12", "0", "dfe03f69b3d4b16552958dc8eecd80f026099c0f5636a27544ac8c78c8125977"),
            ("F2xF2xF2", "10", "3", "6246a17830ba3afc32568fc1860b23f1f6f756fae6e09c7ccca5334debc045ed"),
        ],
    )
    def test_pinned_draws(self, group, max_length, seed, sha256, tmp_path):
        # the seeded streams and the cascade are frozen: any change to how a
        # chunk is drawn or filtered changes these digests
        out = tmp_path / "s"
        assert run(
            [
                "sample", "--group", group, "--max-length", max_length,
                "--samples", "20000", "--seed", seed, "--out", str(out),
            ]
        ) == 0
        assert digest(out / "sample.csv") == sha256

    def test_generates_seed_when_missing(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run(
            [
                "sample", "--group", "F2xF2", "--max-length", "4", "--samples", "100",
                "--out", str(out),
            ]
        ) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("seed: ") and first.endswith(" (generated)")
        # the manifest records the seed the run drew, not the missing flag
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == int(first.split()[1])


class TestVerifySeries:
    def test_prints_residuals(self, capsys):
        assert run(
            ["verify-series", "--group", "F2xF2", "--n-max", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "even_return" in out and "reciprocal_relation" in out

    def test_dumps_tables(self, tmp_path):
        out = tmp_path / "v"
        assert run(
            [
                "verify-series", "--group", "F1xF1", "--n-max", "4",
                "--alpha0", "1/5", "--out", str(out),
            ]
        ) == 0
        blob = json.loads((out / "series_tables.json").read_text())
        assert blob["tables"]["signature"] == "F1xF1"
        assert blob["recurrence_residuals"]["even_return"] == "0"
        # the weight filled in during the run is the one recorded
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["a"] == "1/5"

    def test_rational_flags(self, capsys):
        assert run(
            [
                "verify-series", "--group", "F2xF2", "--n-max", "2",
                "--a", "1/8", "--alpha0", "0",
            ]
        ) == 0
        assert "a=1/8" in capsys.readouterr().out

    def test_budget_failure_is_3(self, monkeypatch, capsys):
        # the budget counts the classes that can still get home, and at
        # n_max 3 no step keeps more than 10 of them
        monkeypatch.setattr("leinert.census.MAX_STATES", 10)
        assert run(["verify-series", "--group", "F2xF2", "--n-max", "5"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("budget exceeded: walk on F2xF2")

    def test_reaches_n_max_10(self, tmp_path):
        out = tmp_path / "v"
        assert run(["verify-series", "--group", "F2xF2", "--n-max", "10", "--out", str(out)]) == 0
        blob = json.loads((out / "series_tables.json").read_text())
        residuals = blob["recurrence_residuals"]
        assert residuals["even_return"] == residuals["lagged_return"] == "0"
        assert Fraction(blob["series"]["residuals"]["reciprocal_relation"]) == 0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n-max", "0"], "error: n_max must be >= 1"),
            (["--a", "-1"], "error: step weights must be nonnegative"),
        ],
    )
    def test_bad_config_is_usage_error(self, flags, message, capsys):
        assert run(["verify-series", "--group", "F2xF2"] + flags) == 2
        assert capsys.readouterr().err.splitlines() == [message]

    def test_unreadable_rational_is_usage_error(self, capsys):
        # argparse's own convention: its usage line, then one error line
        assert run(["verify-series", "--group", "F2xF2", "--a", "1/0"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith("argument --a: not a rational number: '1/0'")


class TestRadiusAndBounds:
    def test_radius_zero_decay(self, capsys):
        assert run(["radius", "--s", "2", "--a", "0.25", "--d-bound", "zero"]) == 0
        out = capsys.readouterr().out
        assert "1.154700538" in out
        assert "0.8660254038" in out

    def test_radius_with_decay(self, capsys):
        assert run(["radius", "--s", "2", "--a", "0.25", "--d-bound", "R=2"]) == 0
        out = capsys.readouterr().out
        assert "0.6886915516" in out
        assert "all discriminant roots" in out

    def test_bad_d_bound_is_usage_error(self, capsys):
        assert run(["radius", "--s", "2", "--a", "0.25", "--d-bound", "huh"]) == 2
        assert run(["bounds", "--s", "2", "--a", "0.25", "--d-bound", "R=-1"]) == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "argument --d-bound: bad d-bound 'R=-1': rate/radius parameter must be positive"
        )

    @pytest.mark.parametrize("a", ["1e-300", "1e-200", "1e300", "5e307"])
    def test_bounds_answers_where_radius_does(self, a, tmp_path, capsys):
        assert run(["radius", "--s", "2", "--a", a]) == 0
        z = capsys.readouterr().out.splitlines()[1].split()[2]
        assert run(["bounds", "--s", "2", "--a", a, "--out", str(tmp_path / "b")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split()[2] == lines[2].split()[2] == z  # r_lower, r_upper

    def test_decay_bound_at_the_top_of_the_range_of_a(self, tmp_path, capsys):
        # c R^2 overflows a float; R is far past the free radius, which both print
        argv = ["--s", "1", "--a", "1e307", "--d-bound", "R=20"]
        assert run(["radius", *argv]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("z = 5e-308 ")
        assert run(["bounds", *argv, "--out", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[2] == "5e-308"

    @pytest.mark.parametrize("s", range(1, 9))
    def test_trivial_bound_has_no_gap(self, s, capsys):
        # r_lower and r_upper are one number there, not two roundings of it
        for a in ("1e-300", "1e-200", "1e-160", "1e-100", "0.1", "1", "1e300", "1e307"):
            assert run(["bounds", "--s", str(s), "--a", a]) == 0
            assert capsys.readouterr().out.splitlines()[3] == "gap = 0 absolute, 0 relative"

    def test_bounds_report_and_curve(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert run(
            [
                "bounds", "--s", "2", "--a", "0.25", "--d-bound", "R=2",
                "--s-range", "2:4", "--out", str(out),
            ]
        ) == 0
        text = capsys.readouterr().out
        assert "r_lower" in text and "r_upper" in text
        rows = (out / "curve_points.csv").read_text().splitlines()
        assert rows[0] == "s,a,z_lower,z_upper,z_free_formula"
        assert len(rows) == 4


class TestSpectral:
    def test_writes_outputs(self, tmp_path):
        out = tmp_path / "sp"
        assert run(
            [
                "spectral", "--s", "1", "--N", "12", "--trials", "2",
                "--seed", "0", "--out", str(out),
            ]
        ) == 0
        summary = json.loads((out / "spectral_summary.json").read_text())
        assert summary["trials"] == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"]["spectral.csv"] == digest(out / "spectral.csv")

    def test_tiny_a_answers(self, tmp_path):
        # every trial runs at unit weight, so only 2sa must be a normal float
        out = tmp_path / "sp"
        argv = ["spectral", "--s", "2", "--N", "5", "--seed", "0", "--a", "1e-100"]
        assert run(argv + ["--out", str(out)]) == 0
        summary = json.loads((out / "spectral_summary.json").read_text())
        assert 0 < summary["mean"] <= 4e-100 and summary["all_converged"]

    def test_tiny_a_prints_its_values(self, tmp_path, capsys):
        # the terminal shows the mean to 6 significant digits, not as 0
        out = tmp_path / "sp"
        argv = ["spectral", "--s", "2", "--N", "5", "--seed", "0", "--a", "1e-100"]
        assert run(argv + ["--out", str(out)]) == 0
        summary = json.loads((out / "spectral_summary.json").read_text())
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("mean = "))
        assert line.split()[2] == f"{summary['mean']:.6g}"

    def test_unconverged_trials_write_then_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(spectral, "MAX_ITERS", 2)
        out = tmp_path / "sp"
        argv = ["spectral", "--s", "2", "--N", "6", "--trials", "1", "--seed", "0"]
        assert run(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "warning: some trials did not converge"
        ]
        assert json.loads((out / "spectral_summary.json").read_text())["all_converged"] is False
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"]["spectral.csv"] == digest(out / "spectral.csv")


class TestFigure:
    def test_emits_three_tables(self, tmp_path):
        out = tmp_path / "f"
        assert run(
            [
                "figure", "--s-range", "2:3", "--N", "8", "--trials", "1",
                "--samples", "500", "--max-length", "8", "--seed", "1",
                "--out", str(out),
            ]
        ) == 0
        for name in ("figure_bounds.dat", "figure_spectral.dat", "figure_decay.dat"):
            lines = (out / name).read_text().splitlines()
            assert lines[0].startswith("#")
            assert len(lines) > 1


class TestConsoleScript:
    def test_entry_point_installed(self):
        # the interpreter imports this package, as run_python's do
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "leinert.cli"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2  # no subcommand given
