"""The names the benchmark's tracer wraps must stay where it looks for them.

`benchmarks/workload.py` times the program by replacing module attributes
(`nearproj.study.classify_pair`, `nearproj.norms.cross_mesh_norm`, ...) with
span wrappers.  A rename in the library would not fail there: the wrapper
would sit on a name the program no longer calls, and the layer would read 0 s.
"""

import sys
from pathlib import Path

import pytest

from nearproj import cli

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def workload(monkeypatch):
    """benchmarks/workload.py, imported as `run.py` runs it: with its own
    directory on the path, and dropped from sys.modules afterwards."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workload
    yield workload
    for name in ("workload", "checks", "spans"):
        sys.modules.pop(name, None)


def test_table_4_enters_every_traced_layer(workload, capsys):
    tracer = workload.install_tracer()
    try:
        assert cli.main(["table", "4", "--quiet"]) == 0
    finally:
        tracer.restore()
    names = {span["name"] for span in tracer.dump()}
    assert {"mesh.classify_pair", "norms.cross_mesh_norm", "norms.shared_pass",
            "projection.solve"} <= names


@pytest.mark.parametrize("name,operation", [("node_p2", "n=16"), ("tables", "regularity")])
def test_workload_operation_passes_its_checks(workload, tmp_path, name, operation):
    # a library change that breaks a workload fails here, not only in a benchmark run
    ops, _ = workload.WORKLOADS[name](1, str(tmp_path))
    op = next(op for op in ops if op.name == operation)
    assert op.check(op.run()) == []
