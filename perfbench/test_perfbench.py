"""Self-tests of the benchmark's checker, tracer and workload generation.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import math
import os
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, workload_argv  # noqa: E402


def _reference_text(name: str) -> str:
    with open(check.reference_path(name)) as fh:
        return fh.read()


def _replace_cell(text: str, row: int, column: str, value: str) -> str:
    """Copy of a CSV text with one data cell replaced."""
    lines = text.splitlines()
    data_idx = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    header = lines[data_idx[0]].split(",")
    line_no = data_idx[1 + row]
    cells = lines[line_no].split(",")
    cells[header.index(column)] = value
    lines[line_no] = ",".join(cells)
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- checker


@pytest.mark.parametrize("name", ["bound-bsc", "bound-bec-ump"])
def test_checker_accepts_seed_bound_output(name):
    assert check.check_output(name, _reference_text(name), DEFAULT_SEED, 0) == []


@pytest.mark.parametrize("name", ["simulate-bec", "simulate-bsc-wide"])
def test_checker_accepts_seed_simulate_output(name):
    text = _reference_text(name)
    exit_code = 4 if check.dt_violations(text) else 0
    assert check.check_output(name, text, DEFAULT_SEED, exit_code) == []


def test_seed_dt_violations():
    assert check.dt_violations(_reference_text("simulate-bsc-wide")) == 1
    assert check.dt_violations(_reference_text("simulate-bec")) == 0


def test_checker_rejects_perturbed_rate_cell():
    text = _reference_text("bound-bsc")
    cell = float(check.parse_csv(text)[1][4]["log2M_header_conv"])
    bad = _replace_cell(text, 4, "log2M_header_conv", f"{cell + 1e-4:.12g}")
    problems = check.check_output("bound-bsc", bad, DEFAULT_SEED, 0)
    assert any("log2M_header_conv" in p for p in problems)


def test_checker_tolerates_rate_move_below_tolerance():
    text = _reference_text("bound-bsc")
    cell = float(check.parse_csv(text)[1][0]["log2M_dt"])
    moved = _replace_cell(text, 0, "log2M_dt", f"{cell + 1e-6:.12g}")
    assert check.check_output("bound-bsc", moved, DEFAULT_SEED, 0) == []


def test_checker_rejects_moved_na():
    text = _reference_text("bound-bec-ump")
    bad = _replace_cell(text, 1, "log2M_converse", "NA")
    problems = check.check_output("bound-bec-ump", bad, DEFAULT_SEED, 0)
    assert any("NA moved" in p for p in problems)


def test_checker_rejects_broken_sandwich():
    text = _reference_text("bound-bec-ump")
    rows = check.parse_csv(text)[1]
    high = f"{float(rows[0]['log2M_header_conv']) + 1.0:.12g}"
    bad = _replace_cell(text, 0, "log2M_header_ach", high)
    # the same cell in the reference too, so only the sandwich test can catch it
    problems = check.check_bound("bound-bec-ump", bad, ref=check.parse_csv(bad))
    assert any("sandwich" in p for p in problems)


def test_checker_rejects_changed_mc_error_count():
    name = "simulate-bec"
    text = _reference_text(name)
    row = check.parse_csv(text)[1][0]
    total = int(row["trials"])
    errors = int(row["errors"]) + 1
    rate = errors / total
    bad = _replace_cell(text, 0, "errors", str(errors))
    bad = _replace_cell(bad, 0, "error_rate", f"{rate:.12g}")
    bad = _replace_cell(bad, 0, "std_error", f"{math.sqrt(rate * (1 - rate) / total):.12g}")
    problems = check.check_output(name, bad, DEFAULT_SEED, 0)
    assert any("errors" in p and "reference" in p for p in problems)
    # at another seed only the invariants apply, and this row satisfies them
    assert check.check_output(name, bad, DEFAULT_SEED + 1, 0) == []


def test_checker_rejects_inconsistent_pass_and_exit_code():
    name = "simulate-bsc-wide"
    text = _reference_text(name)
    assert check.check_output(name, text, DEFAULT_SEED, 0)  # the violation needs exit 4
    bad = _replace_cell(text, 1, "pass", "1")
    assert any("pass" in p for p in check.check_output(name, bad, DEFAULT_SEED, 0))


@pytest.fixture(scope="module")
def tradeoff_output(tmp_path_factory):
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from umpbounds import cli

    out = str(tmp_path_factory.mktemp("tradeoff") / "tradeoff.csv")
    assert cli.run(cli.build_config(workload_argv("tradeoff-sweep", DEFAULT_SEED, out))) == 0
    with open(out) as fh:
        return fh.read()


def test_checker_accepts_and_rejects_tradeoff(tradeoff_output):
    assert check.check_output("tradeoff-sweep", tradeoff_output, 5, 0) == []
    row = check.parse_csv(tradeoff_output)[1][500]
    bad = _replace_cell(tradeoff_output, 500, "expected_rate", f"{float(row['expected_rate']) + 1e-8:.12g}")
    assert check.check_output("tradeoff-sweep", bad, 5, 0)


def test_tradeoff_reference_is_a_sample_of_the_output(tradeoff_output):
    assert check.sample_tradeoff_rows(tradeoff_output) == _reference_text("tradeoff-sweep")


def test_no_reference_at_known_wrong_eps():
    assert check.reference_eps_ok(WORKLOADS["bound-bsc"].argv)
    assert not check.reference_eps_ok(["bound", "--class", "eps=1e-12,lambda=1"])


# -------------------------------------------------------------------- tracer


def _fake_layer():
    mod = types.ModuleType("fakepkg.layer")

    def inner(x):
        time.sleep(0.002)
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    def _private(x):
        return x

    for fn in (inner, outer, _private):
        fn.__module__ = mod.__name__
        setattr(mod, fn.__name__, fn)
    return mod


def test_tracer_spans_self_time_and_absent():
    mod = _fake_layer()
    user = types.ModuleType("fakepkg.user")
    user.inner = mod.inner  # imported copy, as `from .layer import inner`
    tracer = Tracer("test", record_args=["layer.outer"])
    tracer.install({"layer": mod}, [mod, user])
    assert mod.outer(1) == 4
    assert user.inner(1) == 2
    summary = tracer.summary()
    assert summary.calls["layer.outer"] == 1
    assert summary.calls["layer.inner"] == 3
    assert summary.wrapped == {"layer.inner", "layer.outer"}
    assert summary.calls.get("layer.deleted_function", 0) == 0
    outer_self = summary.self_s("layer.outer")
    assert 0.0 <= outer_self < summary.incl_s("layer.outer")
    assert summary.top[0] in ("layer.outer", "layer.inner")
    assert summary.unique_ratio(["layer.outer"]) == 1.0
    spans = {s[0]: s for s in tracer.spans}
    parents = [spans[s[1]][2] for s in tracer.spans if s[1]]
    assert parents == ["layer.outer", "layer.outer"]


def test_deleted_function_and_probe_are_reported_absent():
    import run

    wrapped = [fn for fn, _ in run.FUNCTION_METRICS if fn != "achievability.max_log2M_header_ach_best"]
    trace = {
        "functions": {fn: {"calls": 1, "incl_s": 1.0, "self_s": 1.0, "p50_us": 1.0} for fn in wrapped},
        "derived": {name: None for name, _ in run.DERIVED_METRICS},
        "layers": {layer: 0.5 for layer in run.LAYERS},
        "absent": [],
    }
    probes = {p: {"p50": 1.0, "p90": 2.0} for p in run.PROBES}
    probes["header_scan_s"] = {"absent": True}
    values = run.per_layer_values(trace, probes)
    assert "achievability.max_log2M_header_ach_best" in values["_absent"]
    assert values["achievability.max_log2M_header_ach_best.calls"] == 0.0
    assert "probe.header_scan_s" in values["_absent"]
    assert values["probe.header_scan_s.p50"] == 0.0
    assert values["converse.np_beta_bsc.calls"] == 1
    assert "bound.class_cache_hit_ratio" in values["_not_applicable"]
    names = {name for name, _ in run.per_layer_names()}
    assert {n for n in names if not n.startswith(("trace.", "run.", "dt_"))} <= set(values)


# ----------------------------------------------------------------- workloads


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_generation_is_deterministic(name):
    assert workload_argv(name, 7, "x.csv") == workload_argv(name, 7, "x.csv")
    if WORKLOADS[name].seeded:
        assert workload_argv(name, 7, "x.csv") != workload_argv(name, 8, "x.csv")
    else:
        assert workload_argv(name, 7, "x.csv") == workload_argv(name, 8, "x.csv")
