"""Command-line front end.

Three subcommands:

  run       execute a JSON experiment config, write CSV results
  schedule  build and inspect one communication schedule
  plotdata  turn result CSVs into whitespace .dat files for gnuplot

Exit codes: 0 ok, 1 stdout closed before all output was written (as `localsgd
schedule ... | head` does), 2 invalid input (JSON, schema, parameter, or output
path), 3 theorem precondition refusal, 4 numerical failure (a simulated run
diverged, or a numeric constant did not converge), 5 the noise child process failed.
Runs are deterministic: the same config produces byte-identical CSVs, and the
engine's batches are partition invariant, so the bytes do not depend on
which seeds and cells are simulated together. A large per-seed or per-label
CSV is formatted on two CPUs when the process may use two: a child forked by
engine._forked, the helper the engine's noise child uses too, formats the
last half of its blocks while this process writes the first, and the bytes
do not change. When the fork fails or the child fails, this process formats
those blocks itself.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import itertools
import json
import math
import os
import platform
import re
import shutil
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .engine import _SERIES, NoiseDrawError, _forked
from .harness import (
    ExperimentSpec,
    PreconditionError,
    RRule,
    StrategyCell,
    run_bounds_experiment,
    run_rounds_to_target,
    run_speedup_experiment,
    run_strategy_compare,
    thm1_beta,
)
from .objectives import MAKERS, problem_from_spec
from .schedules import (
    STRATEGIES,
    check_thm1_condition,
    check_thm2_condition,
    cubic_sum,
    schedule_from_spec,
    weighted_cubic_sum,
)

_SPLIT_VALUES = 1 << 16  # CSV values worth a forked formatter: a fork costs about 3 ms, a value 1 us
_CSV_ROWS = 256  # rows of one block formatted at once; bounds the cell strings held

_NUM = {"type": "number"}
_POS_NUM = {"type": "number", "exclusiveMinimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_WIDTHS = {"type": "array", "items": _POS_INT, "minItems": 1}
# what a schedule block and a strategy cell spell alike
_SCHEDULE_PARAMS = {"a": _POS_NUM, "s": _NUM, "p": _NUM, "R": _POS_INT,
                    "H": {"anyOf": [_POS_INT, _WIDTHS]}}

_CELL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["label", "kind"],
    "properties": {
        "label": {"type": "string", "pattern": "^[A-Za-z0-9_-]+$"},
        "kind": {"enum": list(STRATEGIES)},
        **_SCHEDULE_PARAMS,
        "r_rule": {
            "type": "object",
            "additionalProperties": False,
            "required": ["coef", "T_exp", "n_exp"],
            "properties": {"coef": _POS_NUM, "T_exp": _NUM, "n_exp": _NUM},
        },
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment", "problem", "seeds"],
    "properties": {
        "experiment": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["bounds", "rounds-to-target", "speedup",
                                  "strategy-compare"]},
                "theorem": {"enum": [1, 2, 3]},
                "T": _POS_INT,
                "t_max": _POS_INT,
                "threshold": _POS_NUM,
                "threshold_auto_factor": _POS_NUM,
                "measure": {"enum": ["r", "e", "h"]},
                "n_list": {"type": "array", "items": _POS_INT, "minItems": 1},
                "record_stride": _POS_INT,
                "cells": {"type": "array", "items": _CELL_SCHEMA, "minItems": 1},
            },
        },
        "problem": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family", "n", "d", "seed"],
            "properties": {
                "family": {"enum": list(MAKERS)},
                "n": _POS_INT,
                "d": _POS_INT,
                "seed": {"type": "integer", "minimum": 0},
                "mu": _POS_NUM,
                "L": _POS_NUM,
                "delta": {"type": "number", "minimum": 0},
                "sigma_noise": {"type": "number", "minimum": 0},
                "eps_pd": _POS_NUM,
                "Q_diag": {"type": "array", "items": _NUM, "minItems": 1},
                "eps_sin": {"type": "number", "minimum": 0},
                "K": _POS_INT,
                "m": _POS_INT,
                "shards_per_agent": _POS_INT,
                "lam": _POS_NUM,
            },
        },
        "schedule": {
            "type": "object",
            "additionalProperties": False,
            "required": ["strategy"],
            "properties": {
                "strategy": {"enum": list(STRATEGIES)},
                **_SCHEDULE_PARAMS,
                "T": _POS_INT,
            },
        },
        "stepsize": {
            "type": "object",
            "additionalProperties": False,
            "required": ["policy"],
            "properties": {
                "policy": {"enum": ["inverse-time", "constant"]},
                "beta": {"anyOf": [_POS_NUM, {"const": "auto"}]},
                "c": {"anyOf": [_POS_NUM, {"type": "array", "items": _POS_NUM,
                                           "minItems": 1}]},
            },
        },
        "seeds": {
            "anyOf": [
                {"type": "array", "items": {"type": "integer", "minimum": 0},
                 "minItems": 1},
                {"type": "object", "additionalProperties": False,
                 "required": ["count"],
                 "properties": {"count": _POS_INT,
                                "base": {"type": "integer", "minimum": 0}}},
            ],
        },
        "output": {"type": "string"},
    },
}

# JSON Schema Draft 2020-12 types: a bool is no number, an integral float is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


class ConfigError(ValueError):
    pass


@dataclass
class _Violation:
    """One failed schema keyword: where, which, why, whether the value had the
    type of the schema holding the keyword, and an anyOf's branch violations."""
    path: tuple
    keyword: str
    message: str
    matches_type: bool
    context: list

    def relevance(self):
        # jsonschema's best_match key: shallow, later sibling, not anyOf, value of the wrong type
        return -len(self.path), self.path, self.keyword != "anyOf", not self.matches_type

    def json_path(self) -> str:
        # a path holds list indices and CONFIG_SCHEMA property names, and those need no quoting
        return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in self.path)


def _same(a, b) -> bool:
    """JSON equality of scalars: a bool equals only a bool."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _check(schema: dict, value, path: tuple = ()):
    """Check value against schema keyword by keyword, in schema order, as
    jsonschema's Draft 2020-12 validator does. Returns the value, with every
    integer a Python int and every enum or const match the schema's own
    member, and the violations. Only the keywords CONFIG_SCHEMA uses are
    interpreted; any other raises NotImplementedError."""
    out, errors = value, []
    matches = "type" in schema and _TYPES[schema["type"]](value)

    def fail(keyword, message, context=()):
        errors.append(_Violation(path, keyword, message, matches, list(context)))

    for keyword, arg in schema.items():
        if keyword == "type":
            if not _TYPES[arg](value):
                fail(keyword, f"{value!r} is not of type {arg!r}")
            elif arg == "integer":
                out = int(value)
        elif keyword in ("enum", "const"):
            members = [m for m in (arg if keyword == "enum" else [arg]) if _same(m, value)]
            if members:
                out = members[0]
            else:
                fail(keyword, f"{value!r} is not one of {arg!r}" if keyword == "enum"
                     else f"{arg!r} was expected")
        elif keyword == "required":
            for name in arg if isinstance(value, dict) else ():
                if name not in value:
                    fail(keyword, f"{name!r} is a required property")
        elif keyword == "properties":
            if isinstance(value, dict):
                out = dict(value)
                for name, sub in arg.items():
                    if name in value:
                        out[name], errs = _check(sub, value[name], path + (name,))
                        errors += errs
        elif keyword == "additionalProperties" and arg is False:
            known = schema.get("properties", {})
            extras = sorted(k for k in value if k not in known) if isinstance(value, dict) else []
            if extras:
                fail(keyword, f"Additional properties are not allowed "
                              f"({', '.join(map(repr, extras))} "
                              f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif keyword == "items":
            if isinstance(value, list):
                out = []
                for i, item in enumerate(value):
                    item, errs = _check(arg, item, path + (i,))
                    out.append(item)
                    errors += errs
        elif keyword == "minItems":
            if isinstance(value, list) and len(value) < arg:
                fail(keyword, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}")
        elif keyword in ("minimum", "exclusiveMinimum"):
            if _TYPES["number"](value) and (value < arg if keyword == "minimum" else value <= arg):
                fail(keyword, f"{value!r} is less than "
                              f"{'' if keyword == 'minimum' else 'or equal to '}"
                              f"the minimum of {arg!r}")
        elif keyword == "pattern":
            if isinstance(value, str) and not re.search(arg, value):
                fail(keyword, f"{value!r} does not match {arg!r}")
        elif keyword == "anyOf":
            branches = []
            for sub in arg:
                branch, errs = _check(sub, value, path)
                if not errs:
                    out = branch
                    break
                branches += errs
            else:
                fail(keyword, f"{value!r} is not valid under any of the given schemas", branches)
        else:
            raise NotImplementedError(f"schema keyword {keyword}: {arg!r} is not interpreted")
    return out, errors


def _best_match(errors: list[_Violation]) -> _Violation:
    """The violation jsonschema.exceptions.best_match picks: the most relevant,
    then inside an anyOf its least relevant branch violation, unless two tie."""
    best = max(errors, key=_Violation.relevance)
    while best.context:
        first, *rest = sorted(best.context, key=_Violation.relevance)[:2]
        if rest and first.relevance() == rest[0].relevance():
            break
        best = first
    return best


def _in_double_range(parse):
    """A json.loads number hook: parse(literal), refused past a double's range."""
    def hook(literal: str):
        value = parse(literal)
        try:
            if math.isfinite(value):
                return value
        except OverflowError:  # an int too large to convert
            pass
        raise ValueError(f"{literal} overflows a double")
    return hook


def _non_finite(literal: str):
    raise ValueError(f"{literal} is not a JSON number")


def load_config(path) -> dict:
    """Parse and validate a JSON config against CONFIG_SCHEMA; raises ConfigError.

    NaN, Infinity and numbers past a double's range are not valid JSON. The
    config returned holds an int wherever the schema says integer, and a
    violation is reported as jsonschema's best_match reports it.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text, parse_float=_in_double_range(float),
                         parse_int=_in_double_range(int), parse_constant=_non_finite)
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg, errors = _check(CONFIG_SCHEMA, cfg)
    if errors:
        best = _best_match(errors)
        raise ConfigError(f"config schema violation at {best.json_path()}: {best.message}")
    return cfg


def resolve_seeds(block, offset: int = 0) -> tuple[int, ...]:
    if isinstance(block, dict):
        base = block.get("base", 0)
        seeds = range(base, base + block["count"])
    else:
        seeds = block
    return tuple(int(s) + offset for s in seeds)


def _cell_from_config(block: dict) -> StrategyCell:
    kwargs = dict(block)
    if "r_rule" in kwargs:
        kwargs["r_rule"] = RRule(**kwargs["r_rule"])
    if isinstance(kwargs.get("H"), list):
        kwargs["H"] = tuple(kwargs["H"])
    return StrategyCell(**kwargs)


def spec_from_config(cfg: dict, seed_offset: int = 0) -> ExperimentSpec:
    """The ExperimentSpec of a validated config: each experiment-block key sets
    the field of its name (cells as StrategyCells) and one left out keeps its
    default; the problem, seeds, schedule and stepsize blocks set theirs."""
    exp = dict(cfg["experiment"])
    if "cells" in exp:
        exp["cells"] = tuple(map(_cell_from_config, exp["cells"]))
    # the stepsize block's policy is the stepsize_policy field; a swept c is a tuple
    step = {"stepsize_policy" if key == "policy" else key:
            tuple(value) if isinstance(value, list) else value
            for key, value in cfg.get("stepsize", {}).items()}
    return ExperimentSpec(**exp, **step, problem=cfg["problem"],
                          seeds=resolve_seeds(cfg["seeds"], seed_offset),
                          schedule_spec=cfg.get("schedule"))


def _fmt(v) -> str:
    """CSV cell: bools as 0/1, ints bare, floats as shortest round-trip repr."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header: list[str], rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _cells(column) -> list[str]:
    """_fmt of every entry of a numpy column, converted to Python values once;
    a list is a column formatted already."""
    if isinstance(column, list):
        return column
    values = column.tolist()
    if column.dtype == bool:
        return ["1" if v else "0" for v in values]
    return list(map(repr if column.dtype.kind == "f" else str, values))


def _write_rows(fh, blocks):
    """The rows of (key, columns) blocks: one row per column entry. A block is
    formatted _CSV_ROWS rows at a time, so the cell strings held at once stay
    under _CSV_ROWS rows' worth however long the block is."""
    for key, columns in blocks:
        key = _fmt(key) + ","
        for lo in range(0, len(columns[0]), _CSV_ROWS):
            cells = [_cells(column[lo:lo + _CSV_ROWS]) for column in columns]
            fh.writelines(key + ",".join(row) + "\n" for row in zip(*cells))


def _write_blocks(path: Path, header: list[str], blocks):
    """_write_csv for (key, columns) blocks, each column a numpy array or a
    list of formatted cells. Each process formats _CSV_ROWS rows at a time
    (see _write_rows), so the write's working memory does not grow with its
    rows.

    When there are two or more blocks holding _SPLIT_VALUES values or more, a
    child forked by engine._forked formats the blocks past the half-way value
    into <path>.part while this process writes the header and the blocks
    before them to path; then it waits for the child and appends the part in
    chunks. When no child is forked (one CPU, no os.fork, or a failed fork)
    this process formats every block, and when the child fails (its traceback
    goes to stderr) it formats the child's blocks itself, so the bytes are the
    same either way. The child is killed and reaped and the part removed
    whether the write finished or raised.
    """
    blocks = list(blocks)
    ends = list(itertools.accumulate(len(columns) * len(columns[0]) for _, columns in blocks))
    cut = len(blocks)
    if len(blocks) > 1 and ends[-1] >= _SPLIT_VALUES:
        cut = min(bisect.bisect_left(ends, ends[-1] / 2) + 1, len(blocks) - 1)
    head, tail = blocks[:cut], blocks[cut:]
    part = path.with_name(path.name + ".part")

    def format_tail():
        with open(part, "w", newline="\n") as fh:
            _write_rows(fh, tail)

    try:
        with (_forked(format_tail) if tail else contextlib.nullcontext()) as child, \
                open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            _write_rows(fh, head if child else blocks)
            if child and child():
                fh.flush()
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
            elif child:
                _write_rows(fh, tail)
    finally:
        if tail:
            part.unlink(missing_ok=True)


def write_metrics_csv(path: Path, agg):
    # the runs of one config share t and is_comm: format them once
    t, is_comm = _cells(agg.t), _cells(agg.is_comm)
    _write_blocks(path, ["seed", "t", *_SERIES, "is_comm_round"],
                  ((run.seed, (t, *(getattr(run, name) for name in _SERIES), is_comm))
                   for run in agg.runs))


def write_bounds_csv(path: Path, rep):
    rows = [(rep.theorem, f"term_{label}", term)
            for label, term in zip(rep.labels, rep.terms)]
    rows += [(rep.theorem, "total", rep.total),
             (rep.theorem, "measured", rep.measured),
             (rep.theorem, "margin", rep.margin),
             (rep.theorem, "holds", rep.holds),
             # constants: a failed precondition raises PreconditionError before any report
             (rep.theorem, "precondition_ok", True),
             (rep.theorem, "vacuous", False)]
    _write_csv(path, ["theorem", "field", "value"], rows)


def write_rows_csv(path: Path, rows):
    """speedup.csv or tradeoff.csv: one line per SpeedupRow or TradeoffRow,
    whose field names, in order, are the header."""
    header = [field.name for field in fields(rows[0])]
    _write_csv(path, header, ([getattr(row, name) for name in header] for row in rows))


def write_convergence_csv(path: Path, by_label: dict):
    stats = [f"{stat}_{name}" for name in _SERIES for stat in ("mean", "se")]
    _write_blocks(path, ["label", "t", *stats],
                  ((label, (agg.t, *(getattr(agg, stat) for stat in stats)))
                   for label, agg in by_label.items()))


def _constants_meta(problem) -> dict:
    """The problem's constants that run_meta.json records, with their provenance."""
    consts = problem.constants()
    names = ("L", "mu", "sigma_bar_sq", "sigma_sq", "G", "B", "f_star")
    return {**{name: getattr(consts, name) for name in names},
            "provenance": {name: consts.provenance[name] for name in names}}


def _write_meta(outdir: Path, cfg: dict, spec: ExperimentSpec, extra: dict):
    meta = {
        "version": __version__,
        "environment": {"python": platform.python_version(), "numpy": np.__version__},
        "kind": spec.kind,
        "seeds": list(spec.seeds),
        "config": cfg,
        "error_measure": {
            "with-minimizer": "squared distance of the averaged iterate, r_T",
            "nonconvex": "time-averaged squared gradient norm of the averaged iterate",
        },
        **extra,
    }
    with open(outdir / "run_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_outdir(outdir: Path):
    """Raise ConfigError when the nearest existing part of outdir is not a
    directory, so that a run that could not write its results does not start."""
    for part in (outdir, *outdir.parents):
        if part.exists():
            if not part.is_dir():
                raise ConfigError(f"output directory {outdir}: {part} is not a directory")
            return


def cmd_run(args) -> int:
    """Exit 2 for a config that cannot be loaded or built, whose output path
    runs through a file, or that the harness rejects with ValueError (a
    ConfigError is one); any other exception, such as a KeyError or TypeError
    while the config is built or the experiment runs, is a bug and propagates
    with its traceback."""
    try:
        cfg = load_config(args.config)
        spec = spec_from_config(cfg, args.seed_offset)
        outdir = Path(args.out or cfg.get("output") or "results")
        _check_outdir(outdir)
        if spec.kind == "speedup":  # one problem per n
            problems = {n: problem_from_spec({**spec.problem, "n": n}) for n in spec.n_list}
        else:
            problem = problem_from_spec(cfg["problem"])
    except ValueError as exc:  # a ConfigError too
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    try:
        # every result is in hand before the output directory is made
        if spec.kind == "bounds":
            rep, agg = run_bounds_experiment(problem, spec)
            files = {"metrics.csv": (write_metrics_csv, agg), "bounds.csv": (write_bounds_csv, rep)}
            extra = {
                "theorem": rep.theorem,
                "holds": rep.holds,
                "measured": rep.measured,
                "bound_total": rep.total,
            }
            if rep.theorem == 1:
                consts = problem.constants()
                extra["beta"] = thm1_beta(spec, consts.mu, consts.L)
        elif spec.kind == "rounds-to-target":
            rows = run_rounds_to_target(problem, spec)
            files = {"tradeoff.csv": (write_rows_csv, rows)}
            extra = {
                "threshold": rows[0].threshold,
                "measure": spec.measure,
            }
        elif spec.kind == "speedup":
            rows, notes = run_speedup_experiment(spec, problems)
            files = {"speedup.csv": (write_rows_csv, rows)}
            extra = {"notes": notes,
                     "constants": {n: _constants_meta(p) for n, p in problems.items()}}
        else:
            by_label = run_strategy_compare(problem, spec)
            files = {"convergence.csv": (write_convergence_csv, by_label),
                     **{f"cells/{label}/metrics.csv": (write_metrics_csv, agg)
                        for label, agg in by_label.items()}}
            extra = {}
        if spec.kind != "speedup":
            extra["constants"] = _constants_meta(problem)
        for name, (write, result) in files.items():
            (outdir / name).parent.mkdir(parents=True, exist_ok=True)
            write(outdir / name, result)
        _write_meta(outdir, cfg, spec, extra)
    except PreconditionError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # DivergenceError, ConstantsError, or an overflow
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except NoiseDrawError as exc:  # the child's traceback is already on stderr
        print(f"noise draw failed: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    print(f"wrote results to {outdir}")
    return 0


def _schedule_report(args) -> list[str]:
    """The lines `localsgd schedule` prints: the schedule, its cubic sums and
    the admissibility checks its arguments ask for."""
    sched = schedule_from_spec(vars(args))
    lines = [f"H = {list(sched.H)}", f"R = {sched.R}", f"T = {sched.T}",
             f"cubic_sum = {cubic_sum(sched)}"]
    if args.beta is not None:
        lines.append(f"weighted_cubic_sum = {weighted_cubic_sum(sched, args.beta)!r}")
    if args.mu is not None and args.L is not None and args.beta is not None:
        cond = check_thm1_condition(sched, args.mu, args.L, args.beta)
        lines.append("round  H      cap          result")
        for i, (h, cap, ok) in enumerate(zip(sched.H, cond.caps, cond.per_round)):
            lines.append(f"{i + 1:5d}  {h:5d}  {cap:<11.6g}  {'ok' if ok else 'FAIL'}")
        lines.append(f"thm1 all_pass = {cond.all_pass}")
    if args.L is not None and args.c is not None and args.n_agents is not None:
        cap = check_thm2_condition(sched, args.L, args.c, args.n_agents)
        state = "ok" if cap.ok else "FAIL"
        lines.append(f"thm2 cap = {cap.cap!r}  max H = {cap.max_H}  {state}")
    return lines


def cmd_schedule(args) -> int:
    """Exit 2, having printed nothing to stdout, when a parameter is invalid
    or one the strategy needs is missing."""
    try:
        lines = _schedule_report(args)
    except ValueError as exc:
        print(f"invalid schedule parameters: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _dat_blocks(path: Path, header: str, blocks: list[list[str]]):
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {header}\n")
        for b, block in enumerate(blocks):
            if b:
                fh.write("\n\n")
            for line in block:
                fh.write(line + "\n")


def _label_blocks(rows: list[dict], line) -> list[list[str]]:
    """line(row) of every row, one block per label in first-seen order."""
    groups: dict[str, list[str]] = {}
    for row in rows:
        groups.setdefault(row["label"], []).append(line(row))
    return list(groups.values())


def _speedup_dat(rows: list[dict], path: Path):
    def line(row):
        n = int(row["n"])
        return f"{n} {row['speedup']} {row['se_speedup']} {math.sqrt(n)!r}"
    _dat_blocks(path, "n speedup stderr sqrt_n_reference", _label_blocks(rows, line))


def _tradeoff_dat(rows: list[dict], path: Path):
    lines = [f"{r['label']} {r['R_used']} {r['T_used']}"
             for r in rows if r["reached"] == "1"]
    _dat_blocks(path, "strategy R_used T_used", [lines])


def _convergence_dat(rows: list[dict], path: Path):
    _dat_blocks(path, "t mean_r stderr", _label_blocks(
        rows, lambda row: f"{row['t']} {row['mean_r']} {row['se_r']}"))


def cmd_plotdata(args) -> int:
    rdir = Path(args.results_dir)
    converters = [("speedup.csv", "speedup.dat", _speedup_dat),
                  ("tradeoff.csv", "tradeoff.dat", _tradeoff_dat),
                  ("convergence.csv", "convergence.dat", _convergence_dat)]
    present = [(rdir / src, rdir / dst, fn) for src, dst, fn in converters
               if (rdir / src).exists()]
    if not present:
        missing = ", ".join(str(rdir / src) for src, _, _ in converters)
        print(f"no result CSVs found; looked for: {missing}", file=sys.stderr)
        return 2
    for src, dst, fn in present:
        fn(_read_csv(src), dst)
        print(f"wrote {dst}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localsgd",
        description="Local SGD schedule laboratory: run experiments, inspect "
                    "schedules, export plot data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON experiment config")
    p_run.add_argument("config", help="path to the JSON config file")
    p_run.add_argument("--out", default=None,
                       help="output directory (overrides the config's output key)")
    p_run.add_argument("--seed-offset", type=int, default=0,
                       help="shift every seed for an independent replication")
    p_run.set_defaults(func=cmd_run)

    p_sched = sub.add_parser("schedule", help="build and inspect a schedule")
    p_sched.add_argument("strategy", choices=list(STRATEGIES))
    p_sched.add_argument("--T", type=int)
    p_sched.add_argument("--R", type=int)
    p_sched.add_argument("--a", type=float)
    p_sched.add_argument("--s", type=float)
    p_sched.add_argument("--p", type=float)
    p_sched.add_argument("--H", type=int, nargs="+",
                         help="the round widths of explicit, the one width of fixed-width")
    p_sched.add_argument("--mu", type=float)
    p_sched.add_argument("--L", type=float)
    p_sched.add_argument("--beta", type=float)
    p_sched.add_argument("--c", type=float)
    p_sched.add_argument("--n-agents", type=int)
    p_sched.set_defaults(func=cmd_schedule)

    p_plot = sub.add_parser("plotdata", help="convert result CSVs to .dat files")
    p_plot.add_argument("results_dir")
    p_plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:  # stdout's reader closed early, as `| head` does
        # point stdout at devnull, so the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
