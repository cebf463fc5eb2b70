"""The benchmark's traced gate, run in process on the workloads it gates.

`perfbench/run.py --trace 1` refuses a traced repeat whose output differs from
the untraced repeat's, whose run raises, or whose work counts differ from the
first traced repeat's. So a change fails the benchmark when it removes a name
the tracer's hooks read (the run_many hook reads AggregateMetrics.n_seeds) or
makes a counted call depend on timing. This test makes the same checks at
benchmark seed 1, importing perfbench/'s modules without changing them, and
checks that the hooks see every output file's writer.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
tracer = load("tracer")


def run(wl, workdir: Path, traced: bool):
    """The workload's output files by relative path, and its tracer (None untraced)."""
    workdir.mkdir()
    tr = tracer.install() if traced else None
    try:
        assert wl.run(1, workdir) == 0
    finally:
        if tr is not None:
            tr.uninstall()
    out = workdir / "out"
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}, tr


@pytest.mark.parametrize("name", ["rtt-quadratic", "bounds-readme"])  # BENCHMARK.json's gated
def test_traced_runs_write_the_plain_bytes_and_repeat_their_counts(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    plain, _ = run(wl, tmp_path / "plain", traced=False)
    assert set(wl.csvs) <= set(plain)
    tables = []
    for i in range(2):
        files, tr = run(wl, tmp_path / f"traced{i}", traced=True)
        assert files == plain
        assert tr.missing == []
        spans, counts = tr.tables()
        tables.append(({key: row[0] for key, row in spans.items()}, counts))
    assert tables[0] == tables[1]
    # every writer is hooked: one cli.write call per output file, and the
    # config is loaded and built once each
    calls = tables[0][0]
    assert calls["cli.write"] == len(plain)
    assert calls["cli.config"] == 2
