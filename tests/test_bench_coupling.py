"""The condfix names the benchmark in ``perfbench/`` depends on.

``perfbench/layers.py`` wraps condfix functions by module attribute and
its counter hooks read fields of their arguments and results (for example
``TraceMatrix.degenerate``); ``perfbench/workloads.py`` builds its inputs
and checks its ops through condfix's public names. A rename or deletion in
``src/`` that the benchmark still uses shows up here as a failed op, a
failed check or a crash, before any benchmark run.

The benchmark modules are only imported, never changed. They run in a
child process because ``workloads.import_condfix`` drops every loaded
condfix module, which would leave this process's tests holding stale ones.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One op group of every workload, traced with every layer installed. The
# last line of output holds, per workload, the ops attempted, the errors
# of failed ops, the failed checks and the names of the spans recorded.
CHILD = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import layers, workloads
from tracer import Tracer

results = {}
for name, cls in workloads.WORKLOADS.items():
    api = workloads.import_condfix()
    with tempfile.TemporaryDirectory() as workdir:
        workload = cls(api, 1, Path(workdir))
        tracer = Tracer()
        recorder = workloads.Recorder(workloads.Clock(), tracer)
        layers.install(tracer, api)
        try:
            workload.run_group(recorder, next(workload.groups()))
        finally:
            tracer.unpatch()
    results[name] = {
        "attempted": recorder.attempted, "errors": recorder.errors,
        "violations": recorder.violations, "spans": sorted({s.name for s in tracer.spans}),
    }
print(json.dumps(results))
"""


def test_one_traced_op_group_of_each_workload_runs_clean():
    child = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout.splitlines()[-1])
    assert set(results) == {"corpus", "diverge", "synth-ladder"}
    for name, result in results.items():
        assert result["attempted"] > 0, name
        assert (name, result["errors"], result["violations"]) == (name, {}, [])
    spans = {span for result in results.values() for span in result["spans"]}
    # every hook that reads a condfix result ran at least once
    assert {"minilang.execute", "corpus.check_equivalence", "angelic", "trace.deduplicate",
            "synth.solve.l1", "pipeline.repair", "pipeline.validate"} <= spans
