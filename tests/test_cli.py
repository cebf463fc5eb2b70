"""CLI tests: config validation, exit codes, CSV layout, plot-data export."""

import argparse
import copy
import dataclasses
import errno
import hashlib
import json
import math
import os
import platform
import re
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import localsgd_lab
from localsgd_lab.cli import (
    CONFIG_SCHEMA,
    ConfigError,
    _check,
    build_parser,
    load_config,
    main,
    resolve_seeds,
    spec_from_config,
)
from localsgd_lab.harness import ExperimentSpec, RRule, StrategyCell
from localsgd_lab.objectives import (
    MAKERS,
    DiagonalQuadraticProblem,
    LogisticProblem,
    problem_from_spec,
)
from localsgd_lab.schedules import ALIASES, STRATEGIES, beta_for_increasing

README = Path(__file__).resolve().parents[1] / "README.md"


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def bounds_cfg(outdir, **tweaks):
    cfg = {
        "experiment": {"kind": "bounds", "theorem": 1, "record_stride": 50},
        "problem": {"family": "strongly-convex-quadratic", "n": 4, "d": 4,
                    "mu": 0.5, "L": 2.0, "delta": 1.0, "sigma_noise": 1.0,
                    "seed": 7},
        "schedule": {"strategy": "increasing-power", "a": 1.0, "s": 0.5,
                     "T": 200},
        "stepsize": {"policy": "inverse-time", "beta": "auto"},
        "seeds": {"count": 4, "base": 0},
        "output": str(outdir),
    }
    cfg.update(tweaks)
    return cfg


def test_load_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))


def test_load_config_rejects_unknown_keys(tmp_path):
    cfg = bounds_cfg(tmp_path / "o")
    cfg["mystery"] = 1
    with pytest.raises(ConfigError, match="mystery"):
        load_config(write_cfg(tmp_path, cfg))
    cfg = bounds_cfg(tmp_path / "o")
    cfg["problem"]["extra_knob"] = 2.0
    with pytest.raises(ConfigError, match="extra_knob"):
        load_config(write_cfg(tmp_path, cfg))


def test_load_config_rejects_invariant_violations(tmp_path):
    cfg = bounds_cfg(tmp_path / "o")
    cfg["experiment"]["threshold"] = -1.0
    with pytest.raises(ConfigError, match="threshold"):
        load_config(write_cfg(tmp_path, cfg))
    cfg = bounds_cfg(tmp_path / "o", seeds=[])
    with pytest.raises(ConfigError, match="seeds"):
        load_config(write_cfg(tmp_path, cfg))
    cfg = bounds_cfg(tmp_path / "o")
    cfg["experiment"]["kind"] = "mystery"
    with pytest.raises(ConfigError, match="kind"):
        load_config(write_cfg(tmp_path, cfg))


def test_resolve_seeds_forms():
    assert resolve_seeds([3, 1, 9]) == (3, 1, 9)
    assert resolve_seeds({"count": 3, "base": 10}) == (10, 11, 12)
    assert resolve_seeds({"count": 2}) == (0, 1)
    assert resolve_seeds([0, 1], offset=100) == (100, 101)


def test_spec_from_config_builds_cells(tmp_path):
    cfg = {
        "experiment": {"kind": "speedup", "T": 100, "n_list": [1, 2],
                       "cells": [{"label": "f", "kind": "fixed",
                                  "r_rule": {"coef": 0.2, "T_exp": 0.75,
                                             "n_exp": 0.75}},
                                 {"label": "x", "kind": "explicit",
                                  "H": [50, 50]}]},
        "problem": {"family": "strongly-convex-quadratic", "n": 1, "d": 4,
                    "mu": 0.5, "L": 2.0, "delta": 1.0, "sigma_noise": 1.0,
                    "seed": 7},
        "stepsize": {"policy": "constant", "c": [0.1, 0.5]},
        "seeds": [0, 1],
    }
    spec = spec_from_config(cfg)
    assert spec.cells[0].r_rule == RRule(0.2, 0.75, 0.75)
    assert spec.cells[1].H == (50, 50)
    assert spec.c == (0.1, 0.5)
    assert spec.n_list == (1, 2)


def test_config_keys_are_stated_once(tmp_path):
    # the experiment block passes through to ExperimentSpec, a cell's keys are
    # StrategyCell's fields, and a cell spells a schedule as a schedule block does
    experiment = CONFIG_SCHEMA["properties"]["experiment"]["properties"]
    cell = experiment["cells"]["items"]["properties"]
    block = CONFIG_SCHEMA["properties"]["schedule"]["properties"]
    spec_fields = dataclasses.fields(ExperimentSpec)
    assert set(experiment) <= {field.name for field in spec_fields}
    assert set(cell) == {field.name for field in dataclasses.fields(StrategyCell)}
    shared = set(block) - {"strategy", "T"}
    assert shared == set(cell) - {"label", "kind", "r_rule"}
    assert all(cell[key] is block[key] for key in shared)

    cfg = {"experiment": {"kind": "bounds"}, "problem": QUADRATIC, "seeds": [3]}
    spec = spec_from_config(load_config(write_cfg(tmp_path, cfg)))
    assert (spec.kind, spec.problem, spec.seeds) == ("bounds", QUADRATIC, (3,))
    for field in spec_fields:
        if field.name not in ("kind", "problem", "seeds"):
            assert getattr(spec, field.name) == field.default, field.name


def test_run_refuses_a_cell_spelling_explicit_H(tmp_path, capsys):
    # a cell spells the widths of explicit as a schedule block does, as H
    cfg = {"experiment": {"kind": "strategy-compare", "T": 20,
                          "cells": [{"label": "x", "kind": "explicit", "explicit_H": [10, 10]}]},
           "problem": QUADRATIC, "stepsize": {"policy": "inverse-time", "beta": 80.0},
           "seeds": [0]}
    out = tmp_path / "res"
    assert main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "invalid config: config schema violation at $.experiment.cells[0]: "
        "Additional properties are not allowed ('explicit_H' was unexpected)\n")
    assert not out.exists()
    cfg["experiment"]["cells"][0]["H"] = cfg["experiment"]["cells"][0].pop("explicit_H")
    assert main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert (out / "cells" / "x" / "metrics.csv").exists()


def test_run_bounds_writes_results(tmp_path, capsys):
    out = tmp_path / "res"
    code = main(["run", write_cfg(tmp_path, bounds_cfg(out))])
    assert code == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "seed,t,r,e,V,h,is_comm_round"
    cells = [ln.split(",") for ln in lines[1:]]
    assert all(row[6] in ("0", "1") for row in cells)
    seeds = [int(row[0]) for row in cells]
    assert seeds == sorted(seeds)
    # float cells round-trip through repr
    assert all(float(row[2]) >= 0 for row in cells)
    fields = dict()
    for ln in (out / "bounds.csv").read_text().splitlines()[1:]:
        _, field, value = ln.split(",")
        fields[field] = value
    assert fields["holds"] == "1" and fields["vacuous"] == "0"
    assert float(fields["total"]) == pytest.approx(
        float(fields["term_init"]) + float(fields["term_noise"])
        + float(fields["term_schedule"]), rel=1e-12)
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["kind"] == "bounds" and meta["seeds"] == [0, 1, 2, 3]
    consts = problem_from_spec(bounds_cfg(out)["problem"]).constants()
    names = ["L", "mu", "sigma_bar_sq", "sigma_sq", "G", "B", "f_star"]
    assert meta["constants"] == {**{name: getattr(consts, name) for name in names},
                                 "provenance": {name: "analytic" for name in names}}


def test_run_meta_records_resolved_beta(tmp_path, capsys):
    # theorem 1 records the beta it ran with, "auto" resolved; theorem 2 has none
    auto = max(beta_for_increasing(1.0, 0.5, 0.5, 2.0), 20.0 * 2.0 / 0.5)
    cases = {"auto": ({}, auto), "numeric": (PINNED_CONFIGS["thm1-explicit"][0], 200.0),
             "thm2": (PINNED_CONFIGS["thm2-decreasing-power"][0], None)}
    for name, (tweaks, beta) in cases.items():
        out = tmp_path / name
        assert main(["run", write_cfg(tmp_path, bounds_cfg(out, **tweaks))]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta.get("beta") == beta, name


def test_run_exit3_names_failing_condition(tmp_path, capsys):
    cfg = bounds_cfg(tmp_path / "res")
    cfg["stepsize"]["beta"] = 10.0
    code = main(["run", write_cfg(tmp_path, cfg)])
    assert code == 3
    assert "check_thm1_condition" in capsys.readouterr().err
    assert not (tmp_path / "res" / "metrics.csv").exists()


def test_run_exit2_names_sum_invariant(tmp_path, capsys):
    cfg = bounds_cfg(tmp_path / "res")
    cfg["schedule"] = {"strategy": "explicit", "H": [10, 10], "T": 200}
    code = main(["run", write_cfg(tmp_path, cfg)])
    assert code == 2
    assert "sum(H) == T" in capsys.readouterr().err


def test_run_exit2_on_schema_violation(tmp_path, capsys):
    cfg = bounds_cfg(tmp_path / "res")
    cfg["experiment"]["surprise"] = True
    assert main(["run", write_cfg(tmp_path, cfg)]) == 2
    assert "surprise" in capsys.readouterr().err


def test_config_schema_passes_its_metaschema(tmp_path):
    # the schema is valid Draft 2020-12, and load_config's own interpreter reports a
    # violation with jsonschema's path and message
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)
    cfg = bounds_cfg(tmp_path / "o")
    cfg["seeds"]["count"] = 0
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    with pytest.raises(ConfigError) as got:
        load_config(write_cfg(tmp_path, cfg))
    assert str(got.value) == f"config schema violation at {ref.value.json_path}: {ref.value.message}"


def test_run_exit2_on_missing_parameter_or_block(tmp_path, capsys):
    cfg = bounds_cfg(tmp_path / "res")
    del cfg["problem"]["mu"]
    assert main(["run", write_cfg(tmp_path, cfg)]) == 2
    assert "invalid config" in capsys.readouterr().err
    cfg = bounds_cfg(tmp_path / "res")
    del cfg["schedule"]["s"]
    assert main(["run", write_cfg(tmp_path, cfg)]) == 2
    assert "needs s" in capsys.readouterr().err
    cfg = bounds_cfg(tmp_path / "res")
    del cfg["schedule"]
    assert main(["run", write_cfg(tmp_path, cfg)]) == 2
    assert "needs a schedule block" in capsys.readouterr().err


def no_stepsize(cfg):
    return {key: value for key, value in cfg.items() if key != "stepsize"}


STEPSIZE_ERRORS = {
    "thm1-constant": (lambda out: bounds_cfg(out, stepsize={"policy": "constant", "c": 0.1}),
                      "theorem 1 needs the inverse-time stepsize policy, got 'constant'"),
    "thm2-inverse-time-no-c": (
        lambda out: bounds_cfg(out, **{**PINNED_CONFIGS["thm2-decreasing-power"][0],
                                       "stepsize": {"policy": "inverse-time"}}),
        "theorem 2 needs the constant stepsize policy, got 'inverse-time'"),
    "thm3-inverse-time": (
        lambda out: bounds_cfg(out, **{**PINNED_CONFIGS["thm3-nonconvex"][0],
                                       "stepsize": {"policy": "inverse-time", "beta": 80.0}}),
        "theorem 3 needs the constant stepsize policy, got 'inverse-time'"),
    "thm2-constant-no-c": (
        lambda out: bounds_cfg(out, **{**PINNED_CONFIGS["thm2-decreasing-power"][0],
                                       "stepsize": {"policy": "constant"}}),
        "bounds with a constant stepsize needs one c, got None"),
    "strategy-compare": (lambda out: no_stepsize(PINNED_MULTI_CELL["strategy-compare"][0]),
                         "strategy-compare with a constant stepsize needs one c, got None"),
    "rounds-to-target": (lambda out: no_stepsize(PINNED_MULTI_CELL["rounds-to-target"][0]),
                         "rounds-to-target with a constant stepsize needs one c, got None"),
    "speedup": (lambda out: no_stepsize(speedup_cfg(out)),
                "speedup with a constant stepsize needs one c, got None"),
}


@pytest.mark.parametrize("name", sorted(STEPSIZE_ERRORS))
def test_run_exit2_on_missing_or_mismatched_stepsize(tmp_path, capsys, name):
    make, message = STEPSIZE_ERRORS[name]
    out = tmp_path / "res"
    assert main(["run", write_cfg(tmp_path, make(out)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"invalid config: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("where, error", [
    ("run_bounds_experiment", "KeyError"),
    ("run_bounds_experiment", "TypeError"),
    ("problem_from_spec", "KeyError"),
    ("problem_from_spec", "TypeError"),
], ids=["KeyError", "TypeError", "building-KeyError", "building-TypeError"])
def test_run_internal_error_is_not_invalid_config(tmp_path, where, error):
    # a bug inside the harness, or while the config is built, keeps its
    # traceback instead of exit 2 "invalid config"
    script = ("import sys\n"
              "from localsgd_lab import cli\n"
              "def broken(*args):\n"
              f"    raise {error}('internal')\n"
              f"cli.{where} = broken\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    src = str(Path(localsgd_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, "run", write_cfg(tmp_path, bounds_cfg(tmp_path / "res"))],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode not in (0, 2)
    assert "invalid config" not in proc.stderr
    assert "Traceback" in proc.stderr and f"{error}: " in proc.stderr
    assert not (tmp_path / "res").exists()


# sha256 of the CSVs these configs wrote before the metric pass moved off the
# step loop; a speed change must leave every byte of them alone
PINNED_CONFIGS = {
    "thm1-quadratic": (
        {"experiment": {"kind": "bounds", "theorem": 1, "record_stride": 1},
         "schedule": {"strategy": "increasing-power", "a": 1.0, "s": 0.5, "T": 200}},
        {"metrics.csv": "6839156d4a9ccb53f8b203a1d29e956a3432f1522eb99909180829cce3fd9f7e",
         "bounds.csv": "46f843ea21eb1784f9f6b7a78702fc611584bd66bffc9746295c000314390165"}),
    "thm3-nonconvex": (
        {"experiment": {"kind": "bounds", "theorem": 3},
         "problem": {"family": "nonconvex", "n": 4, "d": 4, "Q_diag": [1.0, 0.5, 0.2, 0.1],
                     "delta": 1.0, "eps_sin": 0.2, "sigma_noise": 1.0, "seed": 7},
         "schedule": {"strategy": "fixed", "T": 200, "R": 100},
         "stepsize": {"policy": "constant", "c": 0.05},
         "seeds": {"count": 3, "base": 5}},
        {"metrics.csv": "8acab47132dbcdcc97605ef96ade1f8d2b4945d6d7dddd4c6c43e76b72d9ce92",
         "bounds.csv": "8d2f0de248f7cb56066c622ad01a01686709563ecaa1f4babf57604645f3cf03"}),
    # the decreasing-power and explicit schedule blocks, pinned before the
    # schedule strategies moved into one registry
    "thm2-decreasing-power": (
        {"experiment": {"kind": "bounds", "theorem": 2},
         "schedule": {"strategy": "decreasing-power", "p": 1.0, "R": 20, "T": 200},
         "stepsize": {"policy": "constant", "c": 0.02}},
        {"metrics.csv": "d21c7c232d44d8693e5d125d035eb4e738335efccbec97cc409ef1db0bfb54d6",
         "bounds.csv": "fe68e5c029723696046d2acaa9851e89ded5731417ebcd23a7e2ab2066956e92"}),
    "thm1-explicit": (
        {"schedule": {"strategy": "explicit", "H": [4] * 25 + [5] * 20, "T": 200},
         "stepsize": {"policy": "inverse-time", "beta": 200.0}},
        {"metrics.csv": "63e5b2940cf4cfab8c63ab9dc0e334c6cd87eb14f6245053c6d85c163cd231d3",
         "bounds.csv": "9da217955eb1ea17e6c8ade628001645d388925348bd8e713fd3a33c29691830"}),
}


QUADRATIC = {"family": "strongly-convex-quadratic", "n": 4, "d": 4, "mu": 0.5, "L": 2.0,
             "delta": 1.0, "sigma_noise": 1.0, "seed": 7}

# multi-cell experiments, whose cells run as one engine batch, pinned to the
# sha256 their CSVs had when every cell ran as a batch of its own
PINNED_MULTI_CELL = {
    "rounds-to-target": (
        {"experiment": {"kind": "rounds-to-target", "t_max": 300, "measure": "r",
                        "threshold_auto_factor": 1.5,
                        "cells": [{"label": "inc", "kind": "increasing-power", "a": 1.0, "s": 0.5},
                                  {"label": "unit", "kind": "fixed-width", "H": 1},
                                  {"label": "H3", "kind": "fixed-width", "H": 3},
                                  {"label": "H8", "kind": "fixed-width", "H": 8},
                                  {"label": "R5", "kind": "fixed", "R": 5}]},
         "problem": QUADRATIC,
         "stepsize": {"policy": "inverse-time", "beta": 80.0},
         "seeds": {"count": 3}},
        {"tradeoff.csv": "3dc90d2be16a90bdbb95da18fd5e169ef70e9ddbcd8ecc345790aae3c9cebbf5"}),
    "strategy-compare": (
        {"experiment": {"kind": "strategy-compare", "T": 120, "record_stride": 7,
                        "cells": [{"label": "A", "kind": "fixed", "R": 9},
                                  {"label": "B", "kind": "increasing-power", "a": 1.0, "s": 0.5},
                                  {"label": "C", "kind": "fixed-width", "H": 4},
                                  {"label": "D", "kind": "decreasing-rounds", "R": 6}]},
         "problem": QUADRATIC,
         "stepsize": {"policy": "inverse-time", "beta": 80.0},
         "seeds": [9, 4]},
        {"convergence.csv": "abd1d5b24761a206664abf1e472a2d71dbe96c3fefaa958bb60ea0cf70d4275c"}),
    # pinned before the logistic oracles became one batched interface; unequal
    # shards (8, 7, 6 samples) cover its stochastic oracle and its x* solver,
    # and the metric pass its value and gradient oracles
    "strategy-compare-logistic": (
        {"experiment": {"kind": "strategy-compare", "T": 60, "record_stride": 7,
                        "cells": [{"label": "A", "kind": "fixed", "R": 6},
                                  {"label": "B", "kind": "increasing-power", "a": 1.0, "s": 0.5},
                                  {"label": "C", "kind": "fixed-width", "H": 4}]},
         "problem": {"family": "logistic", "n": 3, "d": 3, "K": 4, "m": 7,
                     "shards_per_agent": 2, "lam": 0.1, "seed": 5},
         "stepsize": {"policy": "constant", "c": 0.5},
         "seeds": [3, 8]},
        {"convergence.csv": "9b901f5b03916ce81f3bd0b0fa569fb358504f7a175eec39b7a9cfed615d1263",
         "cells/A/metrics.csv": "1b26af1785b3f8cafa5d847eb532b7d84093ce74c7d4811439211d421e811eae",
         "cells/B/metrics.csv": "464d571c1b2fd1e4751297df437de2a5b90948075ed7ac514c401758b25f3fa8",
         "cells/C/metrics.csv": "e410f1c63fb53efdb9d058f3633aeff85e3b3eb8b75d90348f04734eaa605951"}),
    # the cell kinds and R rules the other configs leave out, pinned before the
    # schedule strategies moved into one registry
    "strategy-compare-kinds": (
        {"experiment": {"kind": "strategy-compare", "T": 120, "record_stride": 7,
                        "cells": [{"label": "up", "kind": "increasing-rounds", "R": 6},
                                  {"label": "upRule", "kind": "increasing-rounds", "p": 1.0,
                                   "r_rule": {"coef": 0.5, "T_exp": 0.5, "n_exp": 0.5}},
                                  {"label": "rule", "kind": "fixed",
                                   "r_rule": {"coef": 1.0, "T_exp": 0.5, "n_exp": 0.0}},
                                  {"label": "downRule", "kind": "decreasing-rounds", "p": 1.5,
                                   "r_rule": {"coef": 0.25, "T_exp": 0.75, "n_exp": 0.5}},
                                  {"label": "list", "kind": "explicit",
                                   "H": [2, 3, 5, 8, 13, 21, 34, 34]}]},
         "problem": QUADRATIC,
         "stepsize": {"policy": "inverse-time", "beta": 80.0},
         "seeds": [9, 4]},
        {"convergence.csv": "7de489e85991dce7137b3351a0acddcd1796512ed864dfa8c6bf7a2fe597ab48",
         "cells/up/metrics.csv": "e96c7f3fee9c94701edb4719569f6f7cb6cafcae1956f8592302a454fe2df8f7",
         "cells/upRule/metrics.csv": "c2b7c918d92ff742256dd34675abdf9d0d1f95c0a8ca8ac2fa500d6b4f81a91b",
         "cells/rule/metrics.csv": "fab8f01c0d8e054274bbb52d5a4481149c524325a78a97cc0b073b3eb7e33a18",
         "cells/downRule/metrics.csv": "dfb8d4598319f2063415ebd3d4315ea7b3bd0abce6c64639b33cf20f7e2fc0ce",
         "cells/list/metrics.csv": "5bff9cbeba0e603211ffad5b2848097275eb7fe2e46913976c975c68588de932"}),
}

# every cell kind in speedup.csv's strategy column, and an R rule clamped to T
PINNED_SPEEDUP = (
    {"experiment": {"kind": "speedup", "T": 100, "n_list": [1, 2],
                    "cells": [{"label": "clamp", "kind": "fixed",
                               "r_rule": {"coef": 100.0, "T_exp": 1.0, "n_exp": 0.0}},
                              {"label": "up", "kind": "increasing-rounds",
                               "r_rule": {"coef": 1.0, "T_exp": 0.5, "n_exp": 0.5}},
                              {"label": "down", "kind": "decreasing-rounds", "R": 5},
                              {"label": "list", "kind": "explicit", "H": [10] * 10}]},
     "problem": {**QUADRATIC, "n": 1},
     "stepsize": {"policy": "constant", "c": 0.5},
     "seeds": {"count": 3}},
    {"speedup.csv": "495fa0a781cf090d0c74395da8ca65bf4289a08ebcb0a4b7fc2a2918eea40a9c"})

# swept-c speedups, pinned to the speedup.csv digest and notes.sweeps they had
# when every swept c ran as a batch of its own: logistic is scored by r_T, the
# nonconvex family by the time-averaged h, and its c = 200 diverges, so its
# sweep error is written as null
PINNED_SWEEPS = {
    "logistic": (
        {"experiment": {"kind": "speedup", "T": 120, "n_list": [1, 2, 4],
                        "cells": [{"label": "f", "kind": "fixed",
                                   "r_rule": {"coef": 1.0, "T_exp": 0.5, "n_exp": 0.5}},
                                  {"label": "inc", "kind": "increasing-power", "a": 1.0, "s": 0.5}]},
         "problem": {"family": "logistic", "n": 1, "d": 3, "K": 4, "m": 7,
                     "shards_per_agent": 2, "lam": 0.1, "seed": 5},
         "stepsize": {"policy": "constant", "c": [0.2, 0.8, 3.0]},
         "seeds": {"count": 3}},
        "6340c5cbae23b86f1807b16f90342a744f159456d05a4e63336ebdbb62784587",
        {"f": {"chosen_c": 0.8, "swept_c": [0.2, 0.8, 3.0],
               "sweep_errors": [0.10614422714021517, 0.01794937899863499, 0.07781674536800558]},
         "inc": {"chosen_c": 0.8, "swept_c": [0.2, 0.8, 3.0],
                 "sweep_errors": [0.0975753527300313, 0.016029272166143634, 0.07777406261048893]}}),
    "nonconvex": (
        {"experiment": {"kind": "speedup", "T": 100, "n_list": [1, 2, 4],
                        "cells": [{"label": "f", "kind": "fixed", "R": 10}]},
         "problem": {"family": "nonconvex", "n": 1, "d": 4, "Q_diag": [1.0, 0.5, 0.2, 0.1],
                     "delta": 1.0, "eps_sin": 0.2, "sigma_noise": 1.0, "seed": 7},
         "stepsize": {"policy": "constant", "c": [0.05, 0.3, 200.0]},
         "seeds": [4, 9, 2]},
        "e42b8e79d1b5e4ea248e344b070f82737f3f847d9a55dddfa51898552b4dd843",
        {"f": {"chosen_c": 0.3, "swept_c": [0.05, 0.3, 200.0],
               "sweep_errors": [0.14756323962049941, 0.06413923536247472, None]}}),
}


def run_digests(tmp_path, cfg, out_name="res"):
    """Run cfg into tmp_path/out_name; sha256 of every CSV it wrote, by relative path."""
    out = tmp_path / out_name
    assert main(["run", write_cfg(tmp_path, cfg, f"{out_name}.json"), "--out", str(out)]) == 0
    written = {str(f.relative_to(out)) for f in out.rglob("*") if f.is_file()}
    csvs = sorted(name for name in written if name.endswith(".csv"))
    assert written - set(csvs) == {"run_meta.json"}  # nothing else, no part file
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in csvs}


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_run_bounds_csv_digests_pinned(tmp_path, capsys, name):
    tweaks, digests = PINNED_CONFIGS[name]
    out = tmp_path / "res"
    assert main(["run", write_cfg(tmp_path, bounds_cfg(out, **tweaks))]) == 0
    for csv_name, digest in digests.items():
        assert hashlib.sha256((out / csv_name).read_bytes()).hexdigest() == digest, csv_name


# the refusal details each theorem's check gave before the three theorems
# shared one path
REFUSALS = {
    "thm1-guard": (
        {"stepsize": {"policy": "inverse-time", "beta": 10.0}},
        "check_thm1_condition: beta=10 is below the stepsize guard 20L/mu=80 "
        "(eta_0 must be <= 1/(10L))"),
    "thm1-round-cap": (
        {"schedule": {"strategy": "fixed", "T": 200, "R": 2},
         "stepsize": {"policy": "inverse-time", "beta": 80.0}},
        "check_thm1_condition: round 1: H=100 exceeds cap 1.66667"),
    "thm2-cap": (
        {**PINNED_CONFIGS["thm2-decreasing-power"][0],
         "stepsize": {"policy": "constant", "c": 5.0}},
        "check_thm2_condition: max H=19 exceeds cap sqrt(T)/(7Lc sqrt(n))=0.101015"),
    "thm3-cap": (
        {**PINNED_CONFIGS["thm3-nonconvex"][0], "stepsize": {"policy": "constant", "c": 5.0}},
        "check_thm3_condition: max H=2 exceeds cap sqrt(T)/(7LBc sqrt(n))=0.168359"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_run_exit3_refusal_pinned_and_leaves_no_output_dir(tmp_path, capsys, name):
    tweaks, detail = REFUSALS[name]
    out = tmp_path / "res"
    assert main(["run", write_cfg(tmp_path, bounds_cfg(out, **tweaks)), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"refused: {detail}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", sorted(PINNED_MULTI_CELL))
def test_run_multi_cell_csv_digests_pinned(tmp_path, capsys, kind):
    cfg, digests = PINNED_MULTI_CELL[kind]
    got = run_digests(tmp_path, cfg)
    for csv_name, digest in digests.items():
        assert got[csv_name] == digest, csv_name


def test_run_speedup_csv_digest_pinned(tmp_path, capsys):
    cfg, digests = PINNED_SPEEDUP
    assert run_digests(tmp_path, cfg) == digests


def reject_constant(name):
    raise ValueError(f"run_meta.json holds the non-JSON constant {name}")


@pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
def test_run_swept_speedup_pinned(tmp_path, capsys, name):
    cfg, digest, sweeps = PINNED_SWEEPS[name]
    assert run_digests(tmp_path, cfg) == {"speedup.csv": digest}
    text = (tmp_path / "res" / "run_meta.json").read_text()
    assert json.loads(text, parse_constant=reject_constant)["notes"] == {"sweeps": sweeps}


def check_speedup_layouts(tmp_path, partition_seeds, cfg):
    """One sweep call of every (cell, c) pair when c is swept, then one call of
    every cell per n; one config per call writes the same bytes."""
    sizes = partition_seeds()
    whole = run_digests(tmp_path, cfg, "whole")
    exp, S = cfg["experiment"], len(resolve_seeds(cfg["seeds"]))
    C, c = len(exp["cells"]), cfg["stepsize"]["c"]
    sweep = [(C * len(c), min(S, 10))] if isinstance(c, list) else []
    assert sizes == sweep + [(C, S)] * len(exp["n_list"])
    sizes = partition_seeds(None, 1)
    assert run_digests(tmp_path, cfg, "per-c") == whole
    assert sizes and all(k == 1 for k, _ in sizes)
    meta = [(tmp_path / out / "run_meta.json").read_bytes() for out in ("whole", "per-c")]
    assert meta[0] == meta[1]


@pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
def test_run_swept_speedup_byte_identical_one_c_per_batch(tmp_path, partition_seeds, capsys,
                                                          name):
    check_speedup_layouts(tmp_path, partition_seeds, PINNED_SWEEPS[name][0])


def test_run_speedup_byte_identical_one_cell_per_batch(tmp_path, partition_seeds, capsys):
    check_speedup_layouts(tmp_path, partition_seeds, PINNED_SPEEDUP[0])


@pytest.mark.parametrize("kind", sorted(PINNED_MULTI_CELL))
def test_run_multi_cell_byte_identical_across_layouts(tmp_path, partition_seeds, capsys, kind):
    # every cell in one engine call, one cell per call, and the seeds in chunks
    cfg, _ = PINNED_MULTI_CELL[kind]
    C, S = len(cfg["experiment"]["cells"]), len(resolve_seeds(cfg["seeds"]))
    layouts = {"whole": ((None, None), [(C, S)]),
               "per-cell": ((None, 1), [(1, S)] * C)}
    # a rounds-to-target cell stops where the seed mean of the call crosses, so
    # its lanes depend on the seeds of the call (run_cells): no seed chunks
    if kind != "rounds-to-target":
        layouts["seed-chunks"] = ((S - 1, None), [(C, S - 1), (C, 1)])
    digests = {}
    for name, ((k, cells), sizes_expected) in layouts.items():
        sizes = partition_seeds(k, cells)
        digests[name] = run_digests(tmp_path, cfg, name)
        assert sizes == sizes_expected, name
    assert len(digests["whole"]) == (1 if kind == "rounds-to-target" else 1 + C)
    assert all(got == digests["whole"] for got in digests.values())


def test_run_byte_identical_across_seed_partitions(tmp_path, partition_seeds, capsys):
    # all 4 seeds in one batch, in chunks of 3, and one at a time
    cfg_path = write_cfg(tmp_path, bounds_cfg(tmp_path / "whole"))
    assert main(["run", cfg_path, "--out", str(tmp_path / "whole")]) == 0
    for k, sizes_expected in ((3, [(1, 3), (1, 1)]), (1, [(1, 1)] * 4)):
        sizes = partition_seeds(k)
        assert main(["run", cfg_path, "--out", str(tmp_path / f"chunk{k}")]) == 0
        assert sizes == sizes_expected
        for name in ("metrics.csv", "bounds.csv"):
            a = (tmp_path / "whole" / name).read_bytes()
            assert (tmp_path / f"chunk{k}" / name).read_bytes() == a


# the README bounds config at 20 seeds writes 40,020 rows of metrics.csv, past
# the value count at which a forked child formats the last half of the seeds;
# digests taken when one process formatted every row
README_BOUNDS = (
    {"experiment": {"kind": "bounds", "theorem": 1},
     "problem": {"family": "strongly-convex-quadratic", "n": 8, "d": 10, "mu": 0.1,
                 "L": 1.0, "delta": 1.0, "sigma_noise": 1.0, "seed": 1},
     "schedule": {"strategy": "increasing-power", "a": 1.0, "s": 0.5, "T": 2000},
     "stepsize": {"policy": "inverse-time", "beta": "auto"},
     "seeds": {"count": 20, "base": 1000}},
    {"bounds.csv": "de7042944e06c19511896acfca871fede8c0cd58ecf9fe2e6efaa7729ed93881",
     "metrics.csv": "221c60decf9ad9633a6b0fe85c4d9c58d17bcf6d0ecd8dcb311bb87e5340f36f"})


@pytest.mark.parametrize("cpus, fails, parent_blocks", [
    pytest.param({0, 1}, None, [10], id="split"),
    pytest.param({0}, None, [20], id="one-cpu"),
    # this process formats the child's blocks after it, with the same bytes
    # and no part file left
    pytest.param({0, 1}, "child", [10, 10], id="failed-child"),
    # no child: this process formats every block
    pytest.param({0, 1}, "fork", [20], id="fork-fails"),
])
def test_run_split_metrics_csv_pinned(tmp_path, monkeypatch, capsys, cpus, fails,
                                      parent_blocks):
    cfg, digests = README_BOUNDS
    parent, whole, formatted = os.getpid(), localsgd_lab.cli._write_rows, []

    def write_rows(fh, blocks):
        if os.getpid() == parent:
            formatted.append(len(blocks))
        elif fails == "child":
            raise OSError("the child cannot format its blocks")
        whole(fh, blocks)

    def fork_fails():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(localsgd_lab.cli, "_write_rows", write_rows)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    if len(cpus) < 2:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
    if fails == "fork":
        monkeypatch.setattr(os, "fork", fork_fails)
    assert run_digests(tmp_path, cfg) == digests
    assert formatted == parent_blocks
    assert capsys.readouterr().err == ""


def test_run_split_write_that_raises_leaves_no_child_or_part(tmp_path, monkeypatch, capsys):
    # the child is killed and reaped (no_child_process_left) and its part removed
    cfg, _ = README_BOUNDS
    parent, whole = os.getpid(), localsgd_lab.cli._write_rows

    def write_rows(fh, blocks):
        if os.getpid() == parent:
            raise OSError("no space left on device")
        whole(fh, blocks)

    monkeypatch.setattr(localsgd_lab.cli, "_write_rows", write_rows)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = tmp_path / "res"
    with pytest.raises(OSError, match="no space"):
        main(["run", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert [f.name for f in out.iterdir()] == ["metrics.csv"]


def test_run_exit4_on_divergence(tmp_path, capsys):
    cfg = {
        "experiment": {"kind": "strategy-compare", "T": 2000, "record_stride": 500,
                       "cells": [{"label": "wide", "kind": "fixed-width", "H": 5}]},
        "problem": {"family": "strongly-convex-quadratic", "n": 4, "d": 5,
                    "mu": 0.1, "L": 1.0, "delta": 1.0, "sigma_noise": 1.0,
                    "seed": 0},
        "stepsize": {"policy": "constant", "c": 50.0},
        "seeds": [0, 1, 2],
        "output": str(tmp_path / "res"),
    }
    assert main(["run", write_cfg(tmp_path, cfg)]) == 4
    err = capsys.readouterr().err
    # the iterates stay finite; their squares overflow
    assert err == ("numerical failure: cell wide: seeds [0, 1, 2] diverged "
                   "(r, e, h overflowed); lower the stepsize\n")
    assert "Traceback" not in err


CONVEX_FAMILY = {"family": "convex-quadratic", "n": 4, "d": 5, "L": 1.0, "eps_pd": 0.01,
                 "delta": 1.0, "sigma_noise": 1.0, "seed": 0}
NONCONVEX_FAMILY = {"family": "nonconvex", "n": 4, "d": 5, "Q_diag": [0.2, 0.4, 0.6, 0.8, 1.0],
                    "delta": 1.0, "eps_sin": 0.3, "sigma_noise": 1.0, "seed": 0}
RTT_HORIZON = {"t_max": 400, "threshold": 1e-3}


@pytest.mark.parametrize("kind, experiment, problem, diverging", [
    # on the convex family the stepsize is stable when averaging every step,
    # but 40 and 50 local steps overflow
    pytest.param("strategy-compare", {"T": 400, "record_stride": 100}, CONVEX_FAMILY,
                 ["wild", "wilder"], id="strategy-compare"),
    pytest.param("rounds-to-target", RTT_HORIZON, CONVEX_FAMILY, ["wild", "wilder"],
                 id="rounds-to-target"),
    # a race computes only its measure's series
    pytest.param("rounds-to-target", {**RTT_HORIZON, "measure": "r"}, CONVEX_FAMILY,
                 ["wild", "wilder"], id="rounds-to-target-r"),
    # the agents share the nonconvex curvature, so every width overflows alike
    pytest.param("rounds-to-target", {**RTT_HORIZON, "measure": "h"}, NONCONVEX_FAMILY,
                 ["calm", "wild", "wilder"], id="rounds-to-target-h-nonconvex"),
])
def test_run_exit4_names_first_diverged_cell(tmp_path, capsys, kind, experiment, problem,
                                             diverging):
    # one batch of cells: the error names the first of those that diverge;
    # without it, the next one, until none is left or the rest run through
    cfg = {
        "experiment": {"kind": kind, **experiment,
                       "cells": [{"label": "calm", "kind": "fixed-width", "H": 1},
                                 {"label": "wild", "kind": "fixed-width", "H": 40},
                                 {"label": "wilder", "kind": "fixed-width", "H": 50}]},
        "problem": problem,
        "stepsize": {"policy": "constant", "c": 40.0},
        "seeds": [0, 1, 2],
        "output": str(tmp_path / "res"),
    }
    cells = cfg["experiment"]["cells"]
    while cells:
        first = next((cell for cell in cells if cell["label"] in diverging), None)
        if first is None:
            assert main(["run", write_cfg(tmp_path, cfg)]) == 0
            break
        assert main(["run", write_cfg(tmp_path, cfg)]) == 4
        assert capsys.readouterr().err.startswith(
            f"numerical failure: cell {first['label']}: seeds [0, 1, 2] diverged")
        cells.remove(first)


def test_run_exit4_names_first_diverged_speedup_lane(tmp_path, capsys):
    # eta = c sqrt(n/T) grows with n: averaging every step overflows only at
    # n=4, 40 local steps already at n=2; each n is one batch, so the error
    # names the smallest n that diverges, and at that n the first such cell
    cfg = {
        "experiment": {"kind": "speedup", "T": 400, "n_list": [1, 2, 4],
                       "cells": [{"label": "calm", "kind": "fixed-width", "H": 1},
                                 {"label": "wide", "kind": "fixed-width", "H": 40}]},
        "problem": {"family": "convex-quadratic", "n": 1, "d": 5, "L": 1.0, "eps_pd": 0.01,
                    "delta": 1.0, "sigma_noise": 1.0, "seed": 0},
        "stepsize": {"policy": "constant", "c": 50.0},
        "seeds": [0, 1, 2],
    }
    out = tmp_path / "res"
    assert main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    # every seed's final iterate is still finite there: r_t overflowed
    assert err == ("numerical failure: cell wide at n=2: seeds [0, 1, 2] diverged "
                   "(r overflowed); lower the stepsize\n")
    assert not out.exists()
    del cfg["experiment"]["cells"][1]
    assert main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("numerical failure: cell calm at n=4: seeds")
    cfg["experiment"]["n_list"] = [1, 2]
    assert main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    # a nonconvex speedup computes no series, only the running average of h:
    # at n=2 that average overflows while the iterate stays finite, and the
    # lane is still named
    cfg["problem"] = {**NONCONVEX_FAMILY, "n": 1}
    cfg["experiment"]["n_list"] = [1, 2, 4]
    cfg["experiment"]["cells"] = [{"label": "calm", "kind": "fixed-width", "H": 1},
                                  {"label": "wide", "kind": "fixed-width", "H": 40}]
    out = tmp_path / "nonconvex"
    assert main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err == ("numerical failure: cell calm at n=2: seeds [0, 1, 2] "
                                       "diverged (non-finite running average of h); "
                                       "lower the stepsize\n")
    assert not out.exists()
    cfg["experiment"]["n_list"] = [1]
    assert main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0


def test_run_rounds_to_target_cell_that_diverges_after_its_crossing_exits_0(
        tmp_path, capsys, monkeypatch):
    # the race reads each cell only up to its crossing: this cell crosses at
    # t = 2 and overflows later, so it is reached; unreached, it still exits 4
    # eta = c sqrt(n / t_max) = 0.95 on f = (1/2)((x_1 - 1)^2 + 4 (x_2 - 1e-3)^2)
    problem = DiagonalQuadraticProblem(np.array([[1.0, 4.0]]), np.array([[1.0, 1e-3]]), 0.0,
                                       mu=1.0, L=4.0)
    monkeypatch.setattr(localsgd_lab.cli, "problem_from_spec", lambda spec: problem)
    cfg = {"experiment": {"kind": "rounds-to-target", "t_max": 400, "threshold": 1e-3,
                          "measure": "r",
                          "cells": [{"label": "unit", "kind": "fixed-width", "H": 1}]},
           "problem": {"family": "strongly-convex-quadratic", "n": 1, "d": 2, "mu": 1.0,
                       "L": 4.0, "delta": 0.0, "sigma_noise": 0.0, "seed": 0},
           "stepsize": {"policy": "constant", "c": 19.0},
           "seeds": [0]}
    out = tmp_path / "res"
    assert main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert (out / "tradeoff.csv").read_text().splitlines()[1:] == ["unit,2,2,1,0.001"]
    cfg["experiment"]["threshold"] = 1e-30
    assert main(["run", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "unreached")]) == 4
    assert capsys.readouterr().err == ("numerical failure: cell unit: seeds [0] diverged "
                                       "(r overflowed); lower the stepsize\n")


def test_run_exit4_when_the_x_star_solver_does_not_converge(tmp_path, capsys, monkeypatch):
    # the logistic family's x* comes from an iterative solver; one iteration
    # leaves it short of its tolerance, and the run writes nothing
    solve = LogisticProblem._solve_x_star
    monkeypatch.setattr(LogisticProblem, "_solve_x_star", lambda self: solve(self, max_iter=1))
    cfg = {"experiment": {"kind": "strategy-compare", "T": 20, "record_stride": 10,
                          "cells": [{"label": "unit", "kind": "fixed-width", "H": 1}]},
           "problem": {"family": "logistic", "n": 2, "d": 2, "K": 3, "m": 6,
                       "shards_per_agent": 1, "lam": 0.1, "seed": 0},
           "stepsize": {"policy": "constant", "c": 0.1},
           "seeds": [0]}
    out = tmp_path / "res"
    assert main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err == ("numerical failure: x* solver did not reach "
                                       "||grad|| <= 1e-10 within 1 iterations\n")
    assert not out.exists()


def test_run_exit5_when_the_noise_child_fails(tmp_path, capfd, monkeypatch):
    # one step per noise block: this process draws step 0, the child the rest,
    # and the child's third draw fails; its traceback precedes the CLI's line
    parent, draw, drawn = os.getpid(), DiagonalQuadraticProblem.draw_noise, []

    def failing_draw(self, gens, out):
        drawn.append(None)
        if os.getpid() != parent and len(drawn) == 3:  # the child's block of step 3
            raise RuntimeError("draw failed in the child")
        draw(self, gens, out)

    monkeypatch.setattr(DiagonalQuadraticProblem, "draw_noise", failing_draw)
    monkeypatch.setattr(localsgd_lab.engine, "_NOISE_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = {"experiment": {"kind": "strategy-compare", "T": 40, "record_stride": 10,
                          "cells": [{"label": "unit", "kind": "fixed-width", "H": 4}]},
           "problem": CONVEX_FAMILY, "stepsize": {"policy": "constant", "c": 0.1},
           "seeds": [3, 5]}
    out = tmp_path / "res"
    assert main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 5
    err = capfd.readouterr().err
    assert "RuntimeError: draw failed in the child" in err
    assert err.endswith("noise draw failed: the noise child process failed before step 3; "
                        "its traceback is on stderr\n")
    assert not out.exists()


def test_run_seed_offset(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, bounds_cfg(tmp_path / "res"))
    assert main(["run", cfg_path, "--seed-offset", "50"]) == 0
    meta = json.loads((tmp_path / "res" / "run_meta.json").read_text())
    assert meta["seeds"] == [50, 51, 52, 53]


def test_run_exit2_on_a_seed_past_the_noise_key_range(tmp_path, capsys):
    # a seed keys a uint64 Philox counter: 2**64 is refused as a config
    # error whether the config or --seed-offset puts it there, and 2**64 - 1 runs
    for seeds, offset in (([2**64], 0), ({"count": 4, "base": 0}, 2**64 - 3)):
        cfg_path = write_cfg(tmp_path, bounds_cfg(tmp_path / "bad", seeds=seeds))
        assert main(["run", cfg_path, "--seed-offset", str(offset)]) == 2
        assert capsys.readouterr().err == f"invalid config: need seeds < 2**64, got {2**64}\n"
        assert not (tmp_path / "bad").exists()
    cfg_path = write_cfg(tmp_path, bounds_cfg(tmp_path / "res", seeds=[2**64 - 1]))
    assert main(["run", cfg_path]) == 0
    meta = json.loads((tmp_path / "res" / "run_meta.json").read_text())
    assert meta["seeds"] == [2**64 - 1]


def test_run_rounds_to_target_outputs(tmp_path, capsys):
    cfg = {
        "experiment": {"kind": "rounds-to-target", "t_max": 300, "measure": "r",
                       "threshold_auto_factor": 10.0,
                       "cells": [{"label": "unit", "kind": "fixed-width", "H": 1},
                                 {"label": "wide", "kind": "fixed-width", "H": 8}]},
        "problem": {"family": "strongly-convex-quadratic", "n": 4, "d": 4,
                    "mu": 0.5, "L": 2.0, "delta": 1.0, "sigma_noise": 1.0,
                    "seed": 7},
        "stepsize": {"policy": "inverse-time", "beta": 80.0},
        "seeds": {"count": 4},
        "output": str(tmp_path / "res"),
    }
    assert main(["run", write_cfg(tmp_path, cfg)]) == 0
    lines = (tmp_path / "res" / "tradeoff.csv").read_text().splitlines()
    assert lines[0] == "label,R_used,T_used,reached,threshold"
    assert len(lines) == 3
    unit = lines[1].split(",")
    assert unit[0] == "unit" and unit[1] == unit[2]  # H=1: rounds == iterations
    meta = json.loads((tmp_path / "res" / "run_meta.json").read_text())
    assert meta["constants"]["mu"] == 0.5 and meta["constants"]["provenance"]["mu"] == "analytic"


def test_run_strategy_compare_writes_cells(tmp_path, capsys):
    cfg = {
        "experiment": {"kind": "strategy-compare", "T": 90, "record_stride": 30,
                       "cells": [{"label": "A", "kind": "fixed", "R": 9},
                                 {"label": "B", "kind": "increasing-power",
                                  "a": 1.0, "s": 0.5}]},
        "problem": {"family": "strongly-convex-quadratic", "n": 4, "d": 4,
                    "mu": 0.5, "L": 2.0, "delta": 1.0, "sigma_noise": 1.0,
                    "seed": 7},
        "stepsize": {"policy": "inverse-time", "beta": 80.0},
        "seeds": [0, 1],
        "output": str(tmp_path / "res"),
    }
    assert main(["run", write_cfg(tmp_path, cfg)]) == 0
    root = tmp_path / "res"
    assert (root / "convergence.csv").exists()
    for label in ("A", "B"):
        lines = (root / "cells" / label / "metrics.csv").read_text().splitlines()
        assert lines[0] == "seed,t,r,e,V,h,is_comm_round"
    constants = json.loads((root / "run_meta.json").read_text())["constants"]
    assert set(constants) == {"L", "mu", "sigma_bar_sq", "sigma_sq", "G", "B", "f_star",
                              "provenance"}
    assert set(constants["provenance"]) == set(constants) - {"provenance"}


def speedup_cfg(outdir):
    return {
        "experiment": {"kind": "speedup", "T": 100, "n_list": [1, 2],
                       "cells": [{"label": "f", "kind": "fixed",
                                  "r_rule": {"coef": 1.0, "T_exp": 0.5,
                                             "n_exp": 0.5}}]},
        "problem": {"family": "strongly-convex-quadratic", "n": 1, "d": 4,
                    "mu": 0.5, "L": 2.0, "delta": 1.0, "sigma_noise": 1.0,
                    "seed": 7},
        "stepsize": {"policy": "constant", "c": 0.5},
        "seeds": {"count": 4},
        "output": str(outdir),
    }


@pytest.mark.parametrize("kind", ["rounds-to-target", "speedup", "strategy-compare"])
def test_run_exit2_on_repeated_cell_label(tmp_path, capsys, kind):
    # a second cell labelled like the first would overwrite its results
    if kind == "speedup":
        cfg = speedup_cfg(tmp_path / "res")
        cfg["experiment"]["cells"].append({"label": "f", "kind": "fixed-width", "H": 2})
    else:
        cfg = json.loads(json.dumps(PINNED_MULTI_CELL[kind][0]))
        cells = cfg["experiment"]["cells"]
        cells[1]["label"] = cells[0]["label"]
    out = tmp_path / "res"
    assert main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert "cell labels must be distinct" in capsys.readouterr().err
    assert not out.exists()


def test_run_exit2_on_both_thresholds(tmp_path, capsys, monkeypatch):
    # an explicit threshold used to win silently over threshold_auto_factor
    monkeypatch.setattr(localsgd_lab.harness, "run_cells", lambda *args: pytest.fail("simulated"))
    cfg = copy.deepcopy(PINNED_MULTI_CELL["rounds-to-target"][0])
    cfg["experiment"]["threshold"] = 1e-3
    out = tmp_path / "res"
    assert main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "invalid config: give threshold or threshold_auto_factor, not both\n"
    assert not out.exists()


def test_run_speedup_csv_layout(tmp_path, capsys):
    cfg = speedup_cfg(tmp_path / "res")
    assert main(["run", write_cfg(tmp_path, cfg)]) == 0
    lines = (tmp_path / "res" / "speedup.csv").read_text().splitlines()
    assert lines[0] == "label,n,R,strategy,mean_error,stderr,speedup,se_speedup,clamped"
    first = lines[1].split(",")
    assert first[1] == "1" and float(first[6]) == 1.0
    meta = json.loads((tmp_path / "res" / "run_meta.json").read_text())
    assert meta["notes"] == {}


def test_run_meta_records_every_speedup_problems_constants_by_n(tmp_path, capsys):
    # a speedup builds one problem per n, and records each one's constants
    cfg = speedup_cfg(tmp_path / "res")
    cfg["experiment"]["n_list"] = [1, 2, 16]
    assert main(["run", write_cfg(tmp_path, cfg)]) == 0
    text = (tmp_path / "res" / "run_meta.json").read_text()
    names = ["L", "mu", "sigma_bar_sq", "sigma_sq", "G", "B", "f_star"]
    want = {}
    for n in (1, 2, 16):
        consts = problem_from_spec({**cfg["problem"], "n": n}).constants()
        want[str(n)] = {**{name: getattr(consts, name) for name in names},
                        "provenance": {name: "analytic" for name in names}}
    constants = json.loads(text)["constants"]
    assert constants == want and list(constants) == ["1", "2", "16"]  # in the order of n
    assert constants["1"]["G"] != constants["16"]["G"]


def test_run_meta_records_the_python_and_numpy_versions(tmp_path, capsys):
    out = tmp_path / "res"
    assert main(["run", write_cfg(tmp_path, speedup_cfg(out))]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["environment"] == {"python": platform.python_version(), "numpy": np.__version__}


def test_schedule_command_prints(capsys):
    assert main(["schedule", "fixed", "--T", "100", "--R", "10"]) == 0
    out = capsys.readouterr().out
    assert "cubic_sum = 10000" in out and "R = 10" in out
    assert main(["schedule", "increasing", "--a", "10", "--s", "0.2",
                 "--T", "30"]) == 0
    assert "[10, 11, 9]" in capsys.readouterr().out


def test_schedule_condition_table(capsys):
    assert main(["schedule", "increasing", "--a", "1", "--s", "1", "--T", "10",
                 "--mu", "1", "--L", "1", "--beta", "12"]) == 0
    out = capsys.readouterr().out
    assert "weighted_cubic_sum" in out
    assert "FAIL" in out and "all_pass = False" in out


def test_schedule_invalid_exit2(capsys):
    assert main(["schedule", "fixed", "--T", "10", "--R", "100"]) == 2
    assert main(["schedule", "explicit"]) == 2


def test_schedule_explicit_checks_T(capsys):
    assert main(["schedule", "explicit", "--H", "2", "3", "--T", "10"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "sum(H) == T" in err
    assert main(["schedule", "explicit", "--H", "2", "3", "--T", "5"]) == 0


def test_schedule_command_output_is_pinned(capsys):
    # sha256 of the bytes the command printed while tau was a tuple of Python ints
    assert main(["schedule", "increasing-power", "--a", "2.2", "--s", "0.13", "--T", "10000",
                 "--mu", "0.1", "--L", "1", "--beta", "200"]) == 0
    out = capsys.readouterr().out
    assert "np." not in out  # no np.int64(...) or np.float64(...) repr among the values
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d9dc3e37ed2491fe93f234d407383336da2ab00ef04c1d77f641316dc9e3f5d9")


def test_schedule_into_a_closed_pipe_exits_1_without_a_traceback():
    # a reader that stops after one line, as `| head -1` does; the report is
    # megabytes long, so the command is still writing when the pipe closes
    src = str(Path(localsgd_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fds = Path("/proc/self/fd")
    before = sorted(os.listdir(fds)) if fds.is_dir() else None
    with subprocess.Popen([sys.executable, "-m", "localsgd_lab.cli", "schedule", "fixed-width",
                           "--H", "1", "--T", "50000", "--mu", "0.1", "--L", "1", "--beta", "200"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"H = [1, 1, ")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    if before is not None:
        assert sorted(os.listdir(fds)) == before


def test_every_surface_takes_the_registered_names():
    names = list(STRATEGIES)
    assert set(ALIASES) < set(names)
    assert CONFIG_SCHEMA["properties"]["schedule"]["properties"]["strategy"]["enum"] == names
    cell = CONFIG_SCHEMA["properties"]["experiment"]["properties"]["cells"]["items"]
    assert cell["properties"]["kind"]["enum"] == names
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    [strategy] = [a for a in sub.choices["schedule"]._actions if a.dest == "strategy"]
    assert list(strategy.choices) == names
    families = CONFIG_SCHEMA["properties"]["problem"]["properties"]["family"]["enum"]
    assert families == list(MAKERS) == ["strongly-convex-quadratic", "convex-quadratic",
                                        "nonconvex", "logistic"]


def test_readme_config_and_schedule_command_run(tmp_path, capsys):
    text = README.read_text()
    configs = re.findall(r"```json\n(.*?)```", text, re.S)
    assert configs
    for i, config in enumerate(configs):
        load_config(write_cfg(tmp_path, json.loads(config), f"readme{i}.json"))
    commands = re.findall(r"`localsgd (schedule [^`]+)`", text)
    assert any(command.startswith("schedule increasing ") for command in commands)
    for command in commands:
        assert main(shlex.split(command)) == 0, command


@pytest.mark.parametrize("report_args", [
    ["--beta", "0"], ["--beta", "-1"],
    ["--mu", "0", "--L", "1", "--beta", "5"], ["--mu", "1", "--L", "0", "--beta", "5"],
    ["--L", "1", "--c", "0", "--n-agents", "2"], ["--L", "0", "--c", "1", "--n-agents", "2"],
    ["--L", "1", "--c", "1", "--n-agents", "0"]])
def test_schedule_invalid_report_parameter_exit2(capsys, report_args):
    # main returns instead of raising, so no traceback; nothing of the report is printed
    assert main(["schedule", "fixed", "--T", "10", "--R", "2", *report_args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("invalid schedule parameters: need ")


def test_plotdata_speedup_reference(tmp_path, capsys):
    src = tmp_path / "speedup.csv"
    src.write_text(
        "label,n,R,strategy,mean_error,stderr,speedup,se_speedup,clamped\n"
        "f,1,10,fixed,0.5,0.01,1.0,0.0,0\n"
        "f,2,17,fixed,0.25,0.01,2.0,0.1,0\n"
        "f,4,28,fixed,0.125,0.01,4.0,0.2,0\n")
    assert main(["plotdata", str(tmp_path)]) == 0
    dat = (tmp_path / "speedup.dat").read_text().splitlines()
    assert dat[0].startswith("#") and sum(ln.startswith("#") for ln in dat) == 1
    refs = [float(ln.split()[3]) for ln in dat[1:] if ln]
    assert refs == [1.0, math.sqrt(2), 2.0]


def test_plotdata_blocks_per_label(tmp_path, capsys):
    src = tmp_path / "convergence.csv"
    src.write_text(
        "label,t,mean_r,se_r,mean_e,se_e,mean_V,se_V,mean_h,se_h\n"
        "A,0,1.0,0.0,1,0,0,0,1,0\n"
        "A,5,0.5,0.0,1,0,0,0,1,0\n"
        "B,0,1.0,0.0,1,0,0,0,1,0\n"
        "B,5,0.4,0.0,1,0,0,0,1,0\n")
    assert main(["plotdata", str(tmp_path)]) == 0
    text = (tmp_path / "convergence.dat").read_text()
    assert text.count("\n\n\n") == 1  # one two-blank-line block separator
    assert text.splitlines()[0] == "# t mean_r stderr"


def test_plotdata_missing_inputs_exit2(tmp_path, capsys):
    assert main(["plotdata", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    for name in ("speedup.csv", "tradeoff.csv", "convergence.csv"):
        assert name in err


def test_plotdata_idempotent_bytes(tmp_path, capsys):
    src = tmp_path / "tradeoff.csv"
    src.write_text("label,R_used,T_used,reached,threshold\n"
                   "a,5,50,1,0.1\nb,9,50,0,0.1\n")
    assert main(["plotdata", str(tmp_path)]) == 0
    first = (tmp_path / "tradeoff.dat").read_bytes()
    assert main(["plotdata", str(tmp_path)]) == 0
    assert (tmp_path / "tradeoff.dat").read_bytes() == first
    # unreached rows carry no point
    assert b"\nb " not in first and first.count(b"\na ") == 1


# --- config validation without jsonschema at run time -----------------------

def test_cli_import_loads_only_numpy_beyond_the_standard_library():
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              "import localsgd_lab.cli\n"
              "print(json.dumps(sorted({m.partition('.')[0] for m in set(sys.modules) - before})))\n")
    src = str(Path(localsgd_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    loaded = set(json.loads(proc.stdout))
    assert {"numpy", "localsgd_lab"} <= loaded
    assert loaded - set(sys.stdlib_module_names) == {"numpy", "localsgd_lab"}


# AC4's race at a shorter horizon: some cells stop, one does not reach the threshold
RTT_RACE = {
    "experiment": {"kind": "rounds-to-target", "t_max": 2000, "threshold": 0.03, "measure": "r",
                   "cells": [{"label": "increasing", "kind": "increasing-power", "a": 2.2,
                              "s": 0.13}] +
                            [{"label": f"fixed{H}", "kind": "fixed-width", "H": H}
                             for H in (1, 2, 5, 10, 20, 50)]},
    "problem": {"family": "strongly-convex-quadratic", "n": 8, "d": 10, "mu": 0.1, "L": 1.0,
                "delta": 4.0, "sigma_noise": 1.0, "seed": 1},
    "stepsize": {"policy": "inverse-time", "beta": 200.0},
    "seeds": {"count": 2, "base": 1000}}


def test_run_leaves_numpy_ma_unimported(tmp_path):
    # a plain np.unique (no index, inverse or counts) calls np.ma.is_masked, and
    # np.isin and np.union1d reach numpy.ma too: its first import costs about
    # 1.4 MB of resident memory and 12 ms, so no run path may use them
    configs = {"rounds-to-target": RTT_RACE, "bounds": README_BOUNDS[0]}
    script = ("import json, sys\n"
              "from localsgd_lab.cli import main\n"
              "for path, out in json.loads(sys.argv[1]):\n"
              "    assert main(['run', path, '--out', out]) == 0\n"
              "    print('numpy.ma' in sys.modules)\n")
    runs = [(write_cfg(tmp_path, cfg, f"{kind}.json"), str(tmp_path / kind))
            for kind, cfg in configs.items()]
    src = str(Path(localsgd_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert [line for line in proc.stdout.splitlines() if "results" not in line] == ["False"] * 2
    rows = (tmp_path / "rounds-to-target" / "tradeoff.csv").read_text().splitlines()
    assert [row.split(",")[3] for row in rows[1:]] == ["1"] * 6 + ["0"]


def schema_nodes(schema):
    """Every subschema of schema, itself included."""
    yield schema
    items = [schema["items"]] if "items" in schema else []
    for sub in [*schema.get("properties", {}).values(), *items, *schema.get("anyOf", [])]:
        yield from schema_nodes(sub)


def test_every_config_schema_keyword_is_interpreted():
    for node in schema_nodes(CONFIG_SCHEMA):
        for keyword, arg in node.items():
            _check({keyword: arg}, None)  # NotImplementedError for a keyword it does not know
    for schema in ({"maximum": 3}, {"additionalProperties": {"type": "string"}}, {"oneOf": []}):
        with pytest.raises(NotImplementedError, match=next(iter(schema))):
            _check(schema, {"x": 4})


# valid configs the parity test mutates: every pinned one
VALID_CONFIGS = ([bounds_cfg("res", **tweaks) for tweaks, _ in PINNED_CONFIGS.values()]
                 + [cfg for cfg, _ in PINNED_MULTI_CELL.values()] + [PINNED_SPEEDUP[0]]
                 + [cfg for cfg, _, _ in PINNED_SWEEPS.values()])
SCHEMA_KEYS = sorted({name for node in schema_nodes(CONFIG_SCHEMA)
                      for name in node.get("properties", {})})


def test_config_schema_property_names_are_plain():
    # a violation's JSONPath writes a property name as .name, unquoted
    assert [name for name in SCHEMA_KEYS if not re.fullmatch("[a-zA-Z][a-zA-Z0-9_]*", name)] == []
    assert len(SCHEMA_KEYS) > 40


MUTANT_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300), st.integers(-3, 300).map(float),
    st.floats(-10.0, -0.0), st.floats(0.0, 10.0),
    st.sampled_from(["", "auto", "bounds", "fixed", "explicit", "r", "a b", "inverse-time",
                     "strongly-convex-quadratic"]),
    st.lists(st.one_of(st.integers(-1, 5), st.floats(-1.0, 5.0)), max_size=3),
    st.dictionaries(st.sampled_from(["count", "base", "label", "kind", "R", "x"]),
                    st.one_of(st.integers(-1, 5), st.sampled_from(["fixed", "a"])), max_size=2))


@st.composite
def mutated_configs(draw):
    """A pinned valid config after one to three mutations: drop a key or an item,
    add a key or an item, or replace a value."""
    cfg = copy.deepcopy(draw(st.sampled_from(VALID_CONFIGS)))
    for _ in range(draw(st.integers(1, 3))):
        nodes = []
        stack = [cfg]
        while stack:
            node = stack.pop()
            if isinstance(node, (dict, list)):
                nodes.append(node)
                stack += node.values() if isinstance(node, dict) else node
        node = draw(st.sampled_from(nodes))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["drop", "add", "replace"] if keys else ["add"]))
        if action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(SCHEMA_KEYS + ["mystery", "bad key", "x'y"]))] = \
                draw(MUTANT_VALUES)
        elif action == "add":
            node.append(draw(MUTANT_VALUES))
        elif action == "drop":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = draw(MUTANT_VALUES)
    return cfg


@settings(max_examples=600, deadline=None)
@given(cfg=mutated_configs())
@example(cfg=bounds_cfg("res", experiment={"kind": "bounds", "theorem": True}))
@example(cfg=bounds_cfg("res", experiment={"kind": "bounds", "theorem": 2.0}))
@example(cfg=bounds_cfg("res", stepsize={"policy": "inverse-time", "beta": "Auto"}))
@example(cfg=bounds_cfg("res", seeds={"count": 0, "base": -1.5}))
def test_load_config_agrees_with_jsonschema(tmp_path_factory, cfg):
    path = tmp_path_factory.getbasetemp() / "parity.json"
    path.write_text(json.dumps(cfg))
    errors = list(jsonschema.Draft202012Validator(CONFIG_SCHEMA).iter_errors(cfg))
    if not errors:
        assert load_config(path) == cfg
        return
    with pytest.raises(ConfigError) as got:
        load_config(path)
    best = jsonschema.exceptions.best_match(errors)
    assert str(got.value) == f"config schema violation at {best.json_path}: {best.message}"


def nested_set(cfg, path, value):
    for key in path[:-1]:
        cfg = cfg[key]
    cfg[path[-1]] = value(cfg[path[-1]])


def as_float(value):
    return [float(v) for v in value] if isinstance(value, list) else float(value)


INTEGRAL_FLOATS = {
    "t_max": (PINNED_MULTI_CELL["rounds-to-target"][0], ("experiment", "t_max")),
    "seeds.count": (bounds_cfg("res"), ("seeds", "count")),
    "seeds.base": (bounds_cfg("res", seeds={"count": 2, "base": 3}), ("seeds", "base")),
    "seeds-list": (bounds_cfg("res", seeds=[0, 5]), ("seeds",)),
    "problem.n": (bounds_cfg("res"), ("problem", "n")),
    "problem.d": (bounds_cfg("res"), ("problem", "d")),
    "problem.seed": (bounds_cfg("res"), ("problem", "seed")),
    "theorem": (bounds_cfg("res"), ("experiment", "theorem")),
    "record_stride": (bounds_cfg("res"), ("experiment", "record_stride")),
    "schedule.H": (bounds_cfg("res", **PINNED_CONFIGS["thm1-explicit"][0]), ("schedule", "H")),
}


@pytest.mark.parametrize("name", sorted(INTEGRAL_FLOATS))
def test_run_integral_float_writes_the_int_spelling_bytes(tmp_path, capsys, name):
    cfg, path = INTEGRAL_FLOATS[name]
    spelled = copy.deepcopy(cfg)
    nested_set(spelled, path, as_float)
    written = []
    for out_name, config in (("int", cfg), ("float", spelled)):
        out = tmp_path / out_name
        assert main(["run", write_cfg(tmp_path, config, f"{out_name}.json"), "--out", str(out)]) == 0
        written.append({str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*")
                        if f.is_file()})
    assert "run_meta.json" in written[0]
    assert written[0] == written[1]


NON_FINITE = {
    "sigma_noise-NaN": (bounds_cfg("res"), ("problem", "sigma_noise"), "NaN"),
    "threshold_auto_factor-NaN": (PINNED_MULTI_CELL["rounds-to-target"][0],
                                  ("experiment", "threshold_auto_factor"), "NaN"),
    "beta-Infinity": (bounds_cfg("res"), ("stepsize", "beta"), "Infinity"),
    "beta-NaN": (bounds_cfg("res"), ("stepsize", "beta"), "NaN"),
    "delta-Infinity": (bounds_cfg("res"), ("problem", "delta"), "Infinity"),
    "mu-minus-Infinity": (bounds_cfg("res"), ("problem", "mu"), "-Infinity"),
    "L-1e400": (bounds_cfg("res"), ("problem", "L"), "1e400"),
    "sigma_noise-10**400": (bounds_cfg("res"), ("problem", "sigma_noise"), "1" + "0" * 400),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_run_exit2_on_non_finite_number(tmp_path, capsys, name):
    cfg, path, literal = NON_FINITE[name]
    cfg = copy.deepcopy(cfg)
    nested_set(cfg, path, lambda _: "@literal@")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg).replace('"@literal@"', literal))
    out = tmp_path / "res"
    assert main(["run", str(config), "--out", str(out)]) == 2
    reason = "is not a JSON number" if literal.endswith(("NaN", "Infinity")) else "overflows a double"
    assert capsys.readouterr().err == f"invalid config: config is not valid JSON: {literal} {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("given_by", ["--out", "output"])
@pytest.mark.parametrize("below", [False, True])
def test_run_exit2_on_output_path_through_a_file(tmp_path, capsys, given_by, below):
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = blocker / "sub" if below else blocker
    cfg = bounds_cfg(out)
    argv = ["run", write_cfg(tmp_path, cfg)] + (["--out", str(out)] if given_by == "--out" else [])
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"invalid config: output directory {out}: "
                                       f"{blocker} is not a directory\n")
    assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == "keep\n"
