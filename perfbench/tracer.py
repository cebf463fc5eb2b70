"""Per-module spans, recorded from outside the program.

The tracer replaces functions and methods of localsgd_lab with timing wrappers
at the boundaries between its modules, and restores them afterwards; nothing
under src/ carries a span. Each thread keeps its own span stack and its own
tables, so the seed thread pool neither loses updates nor shares stacks; the
tables are merged when the trace is read.

A span records its key, its duration and the time covered by its direct child
spans. Per key the tracer keeps the call count, the inclusive time of spans
not nested inside a span of the same key, and the self time (duration minus
direct children).
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from time import perf_counter


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[dict, dict]] = []  # (spans, counts) per thread
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans, counts = {}, {}
            state = self._local.state = ([], spans, counts)
            with self._lock:
                self._threads.append((spans, counts))
        return state

    def wrap(self, key: str, fn, on_exit=None, only_under: str | None = None):
        """Timing wrapper for fn under `key`.

        on_exit(count, stack, args, result) adds work counts after the call;
        with only_under set, only calls made directly inside a span of that
        key are recorded.
        """
        state_of = self._thread_state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans, counts = state_of()
            if only_under is not None and (not stack or stack[-1][0] != only_under):
                return fn(*args, **kwargs)
            outer = all(frame[0] != key for frame in stack)
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                row = spans.get(key)
                if row is None:
                    row = spans[key] = [0, 0.0, 0.0]
                row[0] += 1
                if outer:
                    row[1] += dur
                row[2] += dur - frame[1]
            if on_exit is not None:
                def count(name, value):
                    counts[name] = counts.get(name, 0) + value
                on_exit(count, stack, args, result)
            return result

        return traced

    def patch_function(self, module, name: str, key: str, **kw):
        """Wrap module.name in every localsgd_lab module that imported it."""
        orig = getattr(module, name, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        traced = self.wrap(key, orig, **kw)
        for mod in list(sys.modules.values()):
            if mod is None or not mod.__name__.startswith("localsgd_lab"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, traced)
                    self._undo.append((mod, attr, orig))

    def patch_method(self, cls, name: str, key: str, **kw):
        orig = cls.__dict__.get(name)
        if orig is None:
            self.missing.append(f"{cls.__name__}.{name}")
            return
        setattr(cls, name, self.wrap(key, orig, **kw))
        self._undo.append((cls, name, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def tables(self) -> tuple[dict, dict]:
        """Merged (spans, counts): spans[key] = [calls, inclusive_s, self_s]."""
        spans: dict = {}
        counts: dict = {}
        with self._lock:
            for thread_spans, thread_counts in self._threads:
                for key, row in thread_spans.items():
                    acc = spans.setdefault(key, [0, 0.0, 0.0])
                    for i in range(3):
                        acc[i] += row[i]
                for name, value in thread_counts.items():
                    counts[name] = counts.get(name, 0) + value
        return spans, counts


def _public_functions(module):
    return [name for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")]


def install() -> Tracer:
    """Wrap the module boundaries of localsgd_lab; the caller uninstalls."""
    from localsgd_lab import bounds, cli, engine, harness, objectives, schedules

    tr = Tracer()

    def engine_run(count, stack, args, result):
        config = args[1]
        count("engine.steps", config.schedule.T)
        count("engine.comm_rounds", config.schedule.R)
        count("engine.record_points", len(result.t))

    def engine_many(count, stack, args, result):
        count("engine.aggregate_values", result.n_seeds * (4 * len(result.t) + 2))
        if any(frame[0] == "harness.sweep" for frame in stack):
            count("harness.sweep_runs", result.n_seeds)

    tr.patch_function(engine, "run_local_sgd", "engine.run", on_exit=engine_run)
    tr.patch_function(engine, "run_batch", "engine.batch")
    tr.patch_function(engine, "run_many", "engine.many", on_exit=engine_many)
    noise_cls = getattr(engine, "_StepNoise", None)
    if noise_cls is None:
        tr.missing.append("engine._StepNoise")
    else:
        tr.patch_method(noise_cls, "at_step", "engine.noise")

    tr.patch_function(objectives, "problem_from_spec", "objectives.build")
    families = [cls for cls in vars(objectives).values()
                if inspect.isclass(cls) and issubclass(cls, objectives.Problem)
                and cls is not objectives.Problem]
    for cls in families:
        tr.patch_method(cls, "stochastic_grads", "objectives.oracle")
        tr.patch_method(cls, "_constants", "objectives.constants")
        for name in ("_global_value", "_global_grad"):
            tr.patch_method(cls, name, "objectives.metric_oracle",
                            only_under="engine.run")

    for name in _public_functions(schedules):
        tr.patch_function(schedules, name, "schedules")
    for name in _public_functions(bounds):
        tr.patch_function(bounds, name, "bounds")

    for name in _public_functions(harness):
        if name.startswith("run_"):
            tr.patch_function(harness, name, "harness")
    tr.patch_function(harness, "_resolve_c", "harness.sweep")

    tr.patch_function(cli, "load_config", "cli.config")
    tr.patch_function(cli, "spec_from_config", "cli.config")
    for name in _public_functions(cli):
        if name.startswith("write_"):
            tr.patch_function(cli, name, "cli.write")
    tr.patch_function(cli, "_write_meta", "cli.write")
    return tr


def layer_metrics(tr: Tracer, csv_rows: int, csv_bytes: int) -> dict[str, float]:
    """Per-module metrics from one traced run; csv_* describe what it wrote."""
    spans, counts = tr.tables()

    def calls(key):
        return spans.get(key, [0, 0.0, 0.0])[0]

    def incl(key):
        return spans.get(key, [0, 0.0, 0.0])[1]

    def self_s(key):
        return spans.get(key, [0, 0.0, 0.0])[2]

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    steps = counts.get("engine.steps", 0)
    values = counts.get("engine.aggregate_values", 0)
    return {
        "objectives.oracle_calls": calls("objectives.oracle"),
        "objectives.oracle_s": incl("objectives.oracle"),
        "objectives.oracle_us_per_call": per(incl("objectives.oracle"),
                                             calls("objectives.oracle"), 1e6),
        "objectives.metric_oracle_calls": calls("objectives.metric_oracle"),
        "objectives.metric_oracle_s": incl("objectives.metric_oracle"),
        "objectives.setup_s": incl("objectives.build") + incl("objectives.constants"),
        "objectives.problems_built": calls("objectives.build"),
        "engine.noise_calls": calls("engine.noise"),
        "engine.noise_s": incl("engine.noise"),
        "engine.runs": calls("engine.run"),
        "engine.steps": steps,
        "engine.record_points": counts.get("engine.record_points", 0),
        "engine.comm_rounds": counts.get("engine.comm_rounds", 0),
        "engine.run_s": incl("engine.run"),
        "engine.self_s": self_s("engine.run"),
        "engine.self_us_per_step": per(self_s("engine.run"), steps, 1e6),
        "engine.aggregate_s": self_s("engine.many"),
        "engine.aggregate_values": values,
        "engine.aggregate_ns_per_value": per(self_s("engine.many"), values, 1e9),
        "harness.s": incl("harness"),
        "harness.self_s": self_s("harness") + self_s("harness.sweep"),
        "harness.sweep_runs": counts.get("harness.sweep_runs", 0),
        "schedules.calls": calls("schedules"),
        "schedules.s": incl("schedules"),
        "bounds.calls": calls("bounds"),
        "cli.config_s": incl("cli.config"),
        "cli.write_s": incl("cli.write"),
        "cli.rows_written": csv_rows,
        "cli.bytes_written": csv_bytes,
        "cli.write_us_per_row": per(incl("cli.write"), csv_rows, 1e6),
    }
