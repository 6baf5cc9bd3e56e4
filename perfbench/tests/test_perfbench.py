"""Tests of the benchmark itself, on tiny versions of its workloads."""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import anisomag  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "threshold_magnetic": {"samples": 2},
    "indicator_perimeter": {"resolution": 8},
    "fractional_smooth": {"resolution": 8},
    "moment_norms": {"vectors": 2, "samples": 1024},
}


def _tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def _spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_units():
    """One unit of each tiny workload, run untraced and then traced."""
    out = {}
    for index, name in enumerate(TINY):
        workload = _tiny(name)
        inputs = workload.setup()
        plain = workload.run(inputs)
        tracer = spans.Tracer()
        with tracer.installed(), tracer.unit(index):
            traced = workload.run(tracer.traced_inputs(inputs))
        out[name] = (plain, traced, tracer, index)
    return out


def test_tracing_changes_no_value(traced_units):
    for name, (plain, traced, _, _) in traced_units.items():
        assert traced == plain, name


def test_tracer_restores_every_target(traced_units):
    assert not hasattr(anisomag.limits.run_study, "__wrapped__")
    assert not hasattr(anisomag.functionals.scalar_mixed_modulus_pow, "__wrapped__")
    assert not hasattr(anisomag.bodies.Polytope.ray_interval, "__wrapped__")


def test_spans_nest_inside_their_parent(traced_units):
    for name, (_, _, tracer, index) in traced_units.items():
        assert len(tracer.spans) > 1, name
        for span in tracer.spans:
            assert span.unit == index and span.t0 <= span.t1
            if span.parent is not None:
                parent = tracer.spans[span.parent]
                assert parent.t0 <= span.t0 and span.t1 <= parent.t1, (name, span.name)


def test_self_times_sum_to_unit_wall_time(traced_units):
    for name, (_, _, tracer, index) in traced_units.items():
        root = tracer.spans[0]
        assert root.name == "unit"
        total = sum(spans.self_times(tracer, index).values())
        assert math.isclose(total, root.t1 - root.t0, rel_tol=1e-9), name


def test_layers_on_their_workloads(traced_units):
    expect = {
        "threshold_magnetic": ["functionals.nguyen.calls", "fields.u_eval.flat_points",
                               "fields.u_eval.dense_points", "fields.a_eval.points"],
        "indicator_perimeter": ["bodies.ray_interval.rays", "functionals.bbm.calls", "grids.points"],
        "fractional_smooth": ["functionals.gagliardo.calls", "norms.norms_pow_p.contractions",
                              "fields.grad.points"],
        "moment_norms": ["bodies.sample_uniform.points", "norms.moment_norm_sphere.calls",
                         "norms.moment_norm_batch.vectors", "spheres.rule.calls"],
    }
    for name, metrics in expect.items():
        _, _, tracer, index = traced_units[name]
        totals = spans.unit_metrics(tracer, index)
        for metric in metrics:
            assert totals.get(metric, 0) > 0, (name, metric)
    assert "bodies.ray_interval.calls" not in spans.unit_metrics(*traced_units["threshold_magnetic"][2:])


def test_benchmark_json_matches_the_metric_tables():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def _main(monkeypatch, capsys, tmp_path, trace, snapshot=None, name="moment_norms"):
    """run.main on a tiny workload; the recorded snapshot is for full size."""
    monkeypatch.setitem(workloads.WORKLOADS, name, _tiny(name))
    monkeypatch.setattr(workloads, "load_snapshot", lambda _: snapshot)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    for var in run.THREAD_VARS:  # run.main sets them; restore them afterwards
        monkeypatch.setenv(var, "1")
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[0]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(monkeypatch, capsys, tmp_path, trace):
    code, meta, result = _main(monkeypatch, capsys, tmp_path, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = _spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in table}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert meta["metadata"]["src_lines"] > 0 and len(meta["setup_s"]) == 2
    if trace:
        assert (tmp_path / ".bench_trace" / "moment_norms-seed3.json").exists()


def test_failed_check_exits_nonzero(monkeypatch, capsys, tmp_path):
    workload = _tiny("moment_norms")
    points = workload.run(workload.setup()).points
    moved = [(v + 10.0 * (e + 1.0), e) for v, e in points]
    code, _, result = _main(monkeypatch, capsys, tmp_path, 0, snapshot=moved)
    assert code == 1
    # every id2 vector of every unit drifted from the snapshot
    assert not result["correct"] and result["failed"] == result["attempted"] >= 3 * 6 * 3 * 2


def test_snapshot_check_uses_both_errors():
    assert workloads.snapshot_failures([(1.0, 0.1)], [(1.5, 0.1)]) == [False]
    assert workloads.snapshot_failures([(1.0, 0.1)], [(1.7, 0.1)]) == [True]
