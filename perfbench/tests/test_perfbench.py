"""
Tests of the benchmark itself: the self-time arithmetic, the tracer's
wrapping, tiny-size smoke runs of every workload, and agreement between
BENCHMARK.json and the runner.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent, note=None):
    return [name, float(start), float(end), parent, 0, note]


def test_self_times_on_synthetic_tree():
    spans = [
        span("extend.eval", 0, 10, -1),  # 0: root
        span("decomp.neighbors", 1, 4, 0),  # 1: child of another layer
        span("decomp.in_family", 2, 3, 1),  # 2: same-layer child (recursion)
        span("taylorarith.mul", 5, 7, 0),  # 3
        span("extend.poly", 5.5, 6, 3),  # 4: back into the root's layer
        span("extend.poly", 7.5, 9, 0),  # 5: same-layer child of the root
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx({"extend": 3.5 + 0.5 + 1.5, "decomp": 3.0, "taylorarith": 1.5})
    assert sum(got.values()) == pytest.approx(10.0)  # the root span's time


def test_self_times_of_deep_same_layer_recursion_count_once():
    spans = [span("exprlang.eval", 0, 8, -1)]
    for depth in range(1, 5):
        spans.append(span("exprlang.eval", depth, 8 - depth, depth - 1))
    assert tracer.self_times(spans) == pytest.approx({"exprlang": 8.0})


def test_layer_stats_count_top_level_expansions_and_notes():
    stats = tracer.LayerStats()
    stats.add(
        [
            span("exprlang.eval_taylor_env", 0, 4, -1),
            span("exprlang.eval_taylor_env", 1, 2, 0),
            span("decomp.Decomposition.neighbors", 2, 3, 0, note=7),
        ]
    )
    assert stats.ops == 1
    assert stats.top_level_expansions == 1
    assert stats.notes["decomp.Decomposition.neighbors"] == 7
    assert stats.calls["exprlang.eval_taylor_env"] == 2


def test_tracer_wraps_where_callers_look_and_restores():
    wx = run.import_program(ROOT)
    originals = (wx.pou.constant, wx.taylorarith.mul, vars(wx.taylorarith.TaylorValue)["__mul__"])
    t = tracer.Tracer()
    t.install(vars(wx))
    try:
        cube = wx.decomp.WhitneyCube(0, (0, 0))
        wx.pou.psi_cube(cube, (0.2, 0.3), 2)
    finally:
        t.uninstall()
    names = {s[tracer.NAME] for s in t.take()}
    assert {"pou.psi_cube", "taylorarith.constant", "taylorarith.mul"} <= names
    assert "taylorarith.TaylorValue.__mul__" in names
    assert "pou.constant" not in names  # charged to the defining layer
    restored = (wx.pou.constant, wx.taylorarith.mul, vars(wx.taylorarith.TaylorValue)["__mul__"])
    assert restored == originals


def test_rescale_uses_the_mean_reference_near_each_time():
    ref = hostspeed.REFERENCE_S
    refs = [ref] * 6 + [2 * ref] * 14
    got = hostspeed.rescale([1.0] * 20, refs)
    assert got[0] == pytest.approx(1.0)  # reference speed: unchanged
    assert got[-1] == pytest.approx(0.5)  # host at half speed
    assert got[5] == pytest.approx(1 / 1.4)  # 2 of the 5 timings around it are slow
    assert hostspeed.at_reference_speed(3.0, [ref, 2 * ref, 6 * ref]) == pytest.approx(1.0)


TINY = {
    "cli-grid-tiles": dict(npoints=40, tiles_per_axis=2),
    "derivs-3d-scatter": dict(npoints=8),
    "atlas-transport": dict(npoints=4),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    workload = workloads.WORKLOADS[name](**TINY[name])
    args = types.SimpleNamespace(workload=name, seed=3, seconds=0.3, trace=trace)
    record = run.run_record(args)
    runner = run.run_traced if trace else run.run_plain
    metrics, units, ops = runner(workload, args, ROOT, tmp_path, record)
    assert ops.attempted >= 1 and not ops.failures, ops.failures
    assert set(units) <= set(metrics)
    assert all(v == v for v in metrics.values())  # no NaN
    if trace:
        assert 0.9 < metrics["trace.coverage"] <= 1.0 + 1e-9
        assert metrics["check.margin_max"] <= 1.0
    else:
        assert set(units) == set(run.END_TO_END)
        assert len(record["latencies_ms"]) == ops.attempted


def test_missing_program_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "derivs-3d-scatter", "--seed", "1", "--seconds", "1"]) != 0
    assert '"correct"' not in capsys.readouterr().out


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    reported = {k: unit for k, (unit, keep) in run.PER_LAYER.items() if keep}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
