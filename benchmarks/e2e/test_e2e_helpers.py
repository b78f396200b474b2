"""Tier-1 checks of the benchmark's own helpers (no ``repro`` import, no
compiles): the statistics the metrics are built from, the span arithmetic,
and that ``BENCHMARK.json`` says exactly what the runner emits."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def _load(name: str):
    """Import a benchmark file under a private module name, so a test session
    never sees this directory's ``trace.py`` as the standard library's."""
    spec_ = importlib.util.spec_from_file_location(f"e2e_{name}",
                                                   HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec_)
    sys.modules[spec_.name] = module
    spec_.loader.exec_module(module)
    return module


helpers = _load("helpers")
spec = _load("spec")
trace = _load("trace")


# -- percentile with ten samples beyond ---------------------------------------

@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_supported_percentile_needs_ten_samples_beyond(n, expected):
    assert helpers.supported_percentile(n) == expected


def test_summary_reports_median_tail_and_count():
    values = list(range(1, 101))
    row = helpers.summary(values)
    assert row["n"] == 100 and row["tail_percentile"] == 90.0
    assert row["p50"] == pytest.approx(50.5)
    assert row["tail"] == pytest.approx(90.1)
    assert helpers.summary([1.0, 2.0])["tail"] is None


def test_spread_is_interquartile_range_over_median():
    import statistics

    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert helpers.spread(values) == pytest.approx((q3 - q1) / median)


# -- seeded inputs ---------------------------------------------------------------

def test_schedule_is_byte_identical_across_calls_and_seeded():
    first = helpers.poisson_schedule(300.0, 2.0, seed=7)
    again = helpers.poisson_schedule(300.0, 2.0, seed=7)
    assert json.dumps(first).encode() == json.dumps(again).encode()
    assert first != helpers.poisson_schedule(300.0, 2.0, seed=8)
    assert first == sorted(first) and 0.0 < first[0] and first[-1] < 2.0
    assert 450 < len(first) < 750          # ~ rate x duration


def test_seeded_inputs_depend_on_seed_and_tag_only():
    from types import SimpleNamespace

    specs = [SimpleNamespace(name="x", shape=(2, 3), dtype="float32")]
    a = helpers.seeded_inputs(specs, 3, "m")
    assert helpers.inputs_sha256(a) == helpers.inputs_sha256(
        helpers.seeded_inputs(specs, 3, "m"))
    assert helpers.inputs_sha256(a) != helpers.inputs_sha256(
        helpers.seeded_inputs(specs, 4, "m"))
    assert helpers.inputs_sha256(a) != helpers.inputs_sha256(
        helpers.seeded_inputs(specs, 3, "n"))
    assert a["x"].dtype.name == "float32" and a["x"].shape == (2, 3)


def test_outputs_close_scales_absolute_tolerance_by_magnitude():
    import numpy as np

    big = np.array([300.0, 0.0], dtype=np.float32)
    assert helpers.outputs_close([big + 2e-4], [big], 1e-4, 1e-5)
    assert not helpers.outputs_close([big + 1e-1], [big], 1e-4, 1e-5)
    assert not helpers.outputs_close([big], [big, big], 1e-4, 1e-5)


# -- spans -------------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [trace.Span(1, "parent", 0.0, 10.0, None, "r", 0),
             trace.Span(2, "child", 1.0, 4.0, 1, "r", 0),
             trace.Span(3, "child", 3.0, 6.0, 1, "r", 1),   # overlaps span 2
             trace.Span(4, "grandchild", 1.5, 2.0, 2, "r", 0),
             trace.Span(5, "child", 9.0, 12.0, 1, "r", 1)]  # outlives parent
    own = trace.self_times(spans)
    assert own["parent"] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own["child"] == pytest.approx((3.0 - 0.5) + 3.0 + 3.0)
    assert own["grandchild"] == pytest.approx(0.5)


def test_tracer_nests_by_thread_and_is_a_no_op_when_off():
    off = trace.Tracer(False)
    assert off.span("a") is off.span("b")          # one shared no-op object
    with off.span("a") as handle:
        assert off.record("x", 0.0, 1.0) is None
    assert handle.id is None and off.spans == [] and off.current() is None

    on = trace.Tracer(True, run="r1")
    with on.span("outer") as outer:
        with on.span("inner", k=1) as inner:
            assert on.current() == inner.id
        on.record("measured_elsewhere", 0.0, 1.0, outer.id)
    by_name = {s.name: s for s in on.spans}
    assert by_name["inner"].parent == by_name["outer"].id == outer.id
    assert by_name["measured_elsewhere"].parent == outer.id
    assert by_name["outer"].parent is None
    assert {s.run for s in on.spans} == {"r1"}
    assert on.total("inner") == by_name["inner"].duration
    assert by_name["outer"].duration >= by_name["inner"].duration >= 0.0


def test_trace_writers_round_trip(tmp_path):
    tracer = trace.Tracer(True, run="r")
    with tracer.span("a", model="m"):
        pass
    tracer.write_jsonl(tmp_path / "t.jsonl")
    tracer.write_chrome(tmp_path / "t.json")
    rows = [json.loads(line)
            for line in (tmp_path / "t.jsonl").read_text().splitlines()]
    assert [r["name"] for r in rows] == ["a"] and rows[0]["run"] == "r"
    events = json.loads((tmp_path / "t.json").read_text())["traceEvents"]
    assert events[0]["ph"] == "X" and events[0]["args"]["model"] == "m"


# -- the contract ----------------------------------------------------------------

def test_metric_and_workload_names_are_well_formed_and_unique():
    names = ([m["name"] for m in spec.END_TO_END + spec.PER_LAYER]
             + list(spec.WORKLOADS))
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in spec.END_TO_END:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in spec.END_TO_END if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec.END_TO_END)


def test_every_prediction_names_a_real_metric_and_workload():
    end_to_end = {m["name"] for m in spec.END_TO_END}
    for metric in spec.PER_LAYER:
        assert metric["clock"] in ("wall", "simulated")
        for moved, workload in metric["moves"]:
            assert moved in end_to_end and workload in spec.WORKLOADS, metric
    for name, workload in spec.WORKLOADS.items():
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        assert workload["loop"] and workload["op"] and workload["setups"] >= 1


def test_benchmark_json_lists_exactly_what_the_runner_emits():
    committed = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert list(committed) == ["command", "paths", "run_seconds", "workloads",
                               "end_to_end", "per_layer"]
    assert committed["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(committed["workloads"]) <= 8
    assert len(committed["end_to_end"]) <= 16
    assert len(committed["per_layer"]) <= 128
    # the runner fills its result rows from these same two tables
    source = (HERE / "run.py").read_text()
    assert "rows(spec.END_TO_END, end_to_end)" in source
    assert "rows(spec.PER_LAYER, layer)" in source


def test_compare_verdicts():
    run = _load_run()
    base = {"median": 100.0, "spread": 0.02, "bound": 0.10, "better": "lower"}
    assert run.verdict(base, {**base, "median": 105.0}) == "ok"
    assert run.verdict(base, {**base, "median": 111.0}) == "worse"
    assert run.verdict(base, {**base, "median": 80.0}) == "ok"
    assert run.verdict(base, {**base, "median": 111.0, "spread": 0.3}) \
        == "unresolved"
    higher = {**base, "better": "higher"}
    assert run.verdict(higher, {**higher, "median": 85.0}) == "worse"
    assert run.verdict(higher, {**higher, "median": 120.0}) == "ok"
    single = {**base, "spread": None}
    assert run.verdict(single, {**single, "median": 120.0}) == "worse"


def _load_run():
    """``run.py`` imports its siblings by bare name; serve it the copies
    loaded above instead of putting this directory on ``sys.path``."""
    saved = {name: sys.modules.get(name) for name in ("spec", "trace")}
    sys.modules["spec"], sys.modules["trace"] = spec, trace
    try:
        return _load("run")
    finally:
        for name, module in saved.items():
            if module is None:
                del sys.modules[name]
            else:
                sys.modules[name] = module
