"""One measurement in a fresh process; prints one JSON line.

  worker.py setup  <workload> <seed>
      time `import localsgd_lab.cli` plus building every problem the workload
      uses and computing its certified constants.
  worker.py repeat <workload> <seed> <workdir> <trace 0|1>
      run the workload once through `localsgd run`, judge and hash its output,
      and report the peak resident memory of this process. With trace 1 the
      run is traced per module, then the representative cell is timed through
      `run_batch` and through a serial loop of `run_local_sgd`.

run.py starts these with PYTHONPATH pointing at the checkout's src/ and with
LOCALSGD_THREADS removed, so the default seed pool is measured.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def _check_source(module):
    """Refuse to measure a localsgd_lab that is not this checkout's."""
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise SystemExit(f"imported localsgd_lab from {path}, not from {SRC}")


def _cpu_ticks() -> tuple[int, int] | None:
    """(busy, steal) clock ticks summed over the machine's CPUs, or None.

    Steal is time a virtual CPU had work but the host ran something else.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if fields[:1] != ["cpu"] or len(fields) < 9:
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[1:9])
    return user + nice + system + irq + softirq, steal


def _timed(fn):
    """Run fn(); its result, wall seconds, and the share of CPU time stolen meanwhile."""
    before, start = _cpu_ticks(), time.perf_counter()
    result = fn()
    wall, after = time.perf_counter() - start, _cpu_ticks()
    stolen = 0.0
    if before is not None and after is not None:
        busy, steal = after[0] - before[0], after[1] - before[1]
        stolen = steal / (busy + steal) if busy + steal > 0 else 0.0
    return result, wall, stolen


def setup(wl, seed: int) -> dict:
    def build():
        import localsgd_lab.cli  # the import a user of the CLI pays
        from localsgd_lab.objectives import problem_from_spec

        for spec in wl.problem_specs(seed):
            problem_from_spec(spec).constants()
        return localsgd_lab.cli

    cli, wall, stolen = _timed(build)
    _check_source(cli)
    return {"setup_s": wall * (1.0 - stolen), "wall_s": wall, "stolen": stolen}


def _outputs(outdir: Path) -> tuple[dict, int, int]:
    """sha256 of every CSV, CSV data rows, and bytes of every file written."""
    digests, rows, size = {}, 0, 0
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        if path.suffix == ".csv":
            digests[path.relative_to(outdir).as_posix()] = hashlib.sha256(data).hexdigest()
            rows += max(0, data.count(b"\n") - 1)
    return digests, rows, size


def _batch_vs_serial(wl, seed: int) -> float:
    """Default run_batch wall time over a serial run_local_sgd loop, same seeds.

    Reads 0 when the engine no longer has both functions, like any hook whose
    target is gone.
    """
    from dataclasses import replace

    from localsgd_lab import engine

    if not (hasattr(engine, "run_batch") and hasattr(engine, "run_local_sgd")):
        return 0.0
    problem, config, seeds = wl.representative_cell(seed)
    problem.constants()
    start = time.perf_counter()
    engine.run_batch(problem, config, seeds)
    batch = time.perf_counter() - start
    start = time.perf_counter()
    for s in seeds:
        engine.run_local_sgd(problem, replace(config, seed=s))
    serial = time.perf_counter() - start
    return batch / serial


def _pool_workers() -> int | None:
    """Threads the default seed pool resolves to, if the engine has one."""
    from localsgd_lab import engine

    worker_count = getattr(engine, "_worker_count", None)
    return worker_count(None) if worker_count is not None else None


def repeat(wl, seed: int, workdir: Path, trace: bool) -> dict:
    import localsgd_lab.cli
    import numpy

    _check_source(localsgd_lab.cli)
    workdir.mkdir(parents=True)
    tr = None
    if trace:
        import tracer

        tr = tracer.install()
    try:
        code, wall, stolen = _timed(lambda: wl.run(seed, workdir))
    finally:
        if tr is not None:
            tr.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outdir = workdir / "out"
    digests, rows, size = _outputs(outdir) if outdir.is_dir() else ({}, 0, 0)
    if code != 0:
        problem = f"exit code {code}"
    elif missing := [c for c in wl.csvs
                     if not (outdir / c).is_file() or (outdir / c).stat().st_size == 0]:
        problem = f"missing or empty output {missing}"
    else:
        problem = wl.verdict(outdir)

    result = {
        "run_s": wall * (1.0 - stolen),
        "wall_s": wall,
        "stolen": stolen,
        "ok": problem is None,
        "problem": problem,
        "digests": digests,
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
        "pool_workers": _pool_workers(),
    }
    if tr is not None:
        result["layers"] = tracer.layer_metrics(tr, rows, size)
        result["layers"]["engine.batch_vs_serial"] = _batch_vs_serial(wl, seed)
        result["spans"] = tr.tables()[0]
        result["trace_missing"] = tr.missing
    return result


def main(argv: list[str]) -> None:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    wl = WORKLOADS[name]
    if mode == "setup":
        out = setup(wl, seed)
    else:
        out = repeat(wl, seed, Path(argv[3]), argv[4] == "1")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
