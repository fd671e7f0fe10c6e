"""The names the benchmark harness binds in the package still resolve.

`perfbench/` runs the CLI jobs of each workload and, in a traced pass, wraps
layer functions by name and runs stage probes that import more names.  A
name removed from the package would only show when a traced pass runs, so
this test makes the same bindings in a fresh interpreter.  It reads
`perfbench/` and writes nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

import leinert

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the bindings of perfbench/passrun.py: tracing.install, the probes'
# imports, and each job's argv parsed as the probes parse it; then one
# spectral estimate through the installed wrappers
SCRIPT = """
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import jobs
import tracing
import leinert.cli as cli

tracer = tracing.Tracer()
tracing.install(tracer)
from leinert.census import iter_bad_strings
from leinert.sampler import SampleConfig, TestKind, estimate_bad_frequency
from leinert.series import WalkWeights, dp_tables
from leinert.spectral import SpectralConfig

# one trial through the wrapped haar_unitary and two_norm, whose arguments
# the wrappers pass on as they come
cli.estimate_z_inverse(SpectralConfig(s=2, N=4, trials=1, seed=0))
print("spans", *sorted({span[tracing.NAME] for span in tracer.spans}))

for workload in jobs.WORKLOADS.values():
    for job in workload:
        ns = cli.build_parser().parse_args(job.argv(Path("out"), 0))
        if ns.subcommand == "census":
            next(iter_bad_strings(ns.group, 2), None)
        elif ns.subcommand == "sample":
            for tests in ((), (TestKind.PARITY,)):
                SampleConfig(ns.group, 2, ns.samples, ns.seed, tests=tests)
        elif ns.subcommand == "verify-series":
            dp_tables(ns.group, WalkWeights.uniform(ns.group, ns.a, ns.alpha0), 1)
print("bound", estimate_bad_frequency.__name__)
"""


def test_traced_pass_bindings_resolve():
    src = str(Path(leinert.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no __pycache__ in perfbench/
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PERFBENCH)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "spans spectral.estimate_z_inverse spectral.haar_unitary spectral.two_norm",
        "bound estimate_bad_frequency",
    ]
