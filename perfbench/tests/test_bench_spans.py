"""Span arithmetic, tracer installation, and agreement with BENCHMARK.json."""

import json
import math
from pathlib import Path

import pytest

import spans
import workloads

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_self_time_on_synthetic_tree():
    tree = [
        ("cli.run", 0.0, 10.0, -1),
        ("solver.solve_mild", 1.0, 4.0, 0),
        ("field.sobolev_norm", 2.0, 3.0, 1),
        ("field.sobolev_norm", 5.0, 6.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),
        ("b", 3.0, 7.0, 0),  # overlaps a on [3, 5]
        ("c", 9.0, 12.0, 0),  # runs past its parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_aggregate_by_name_and_module():
    tracer = spans.Tracer()
    tracer.spans[:] = [
        ("cli.run", 0.0, 10.0, -1),
        ("solver.solve_mild", 1.0, 4.0, 0),
        ("field.sobolev_norm", 2.0, 3.0, 1),
        ("field.sobolev_norm", 5.0, 6.0, 0),
    ]
    tracer.counts["solver.steps"] = 16
    tracer.rungs[0.25] = [3, 4]
    values = spans.layer_metrics(tracer, [0.25, 0.16])
    assert values["field.sobolev_norm.calls"] == 2
    assert values["field.sobolev_norm.self_s"] == pytest.approx(2.0)
    assert values["solver.solve_mild.self_s"] == pytest.approx(2.0)
    assert values["cli.self_s"] == pytest.approx(6.0)
    assert values["field.self_s"] == pytest.approx(2.0)
    assert values["solver.steps"] == 16
    assert values["ldp.hits_per_attempt.r0"] == 0.75
    assert values["ldp.hits_per_attempt.r1"] == 0.0
    assert values["ldp.hits_per_attempt.r3"] == 0.0


def test_tracer_patches_every_binding_and_restores_them():
    import numpy as np

    from fracnls import cli, field, ldp, solver

    originals = (solver.solve_mild, ldp.solve_mild, cli.solve_mild, field.sobolev_norm,
                 solver.sobolev_norm, np.fft.fftn)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ldp.solve_mild is solver.solve_mild is cli.solve_mild
        assert solver.solve_mild is not originals[0]
        cfg = cli.parse_config(json.dumps({
            "kind": "solve", "T": 0.01, "n": 4, "grid": {"N": 8}, "nl": None,
            "u0": {"type": "plane"},
        }))
        traj = cli.solve_mild(cfg["_u0"], None, None, 0.0, solver.SolverConfig(T=0.01, n_steps=4))
    finally:
        tracer.uninstall()
    assert (solver.solve_mild, ldp.solve_mild, cli.solve_mild, field.sobolev_norm,
            solver.sobolev_norm, np.fft.fftn) == originals
    values = spans.layer_metrics(tracer, [])
    assert values["cli.parse_config.self_s"] > 0
    assert values["solver.solve_mild.calls"] == 1
    assert values["field.sobolev_norm.calls"] == 5  # u0 and each of 4 steps
    assert values["solver.steps"] == 4
    assert values["solver.cemetery"] == 0
    assert values["field.fft.calls"] == 2 * 4 + 5  # fftn/ifftn per step, one per norm
    assert math.isinf(traj.blowup_time)


def test_metric_lists_match_benchmark_json():
    bench = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in spans.PER_LAYER
    ]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb",
                                                        "bytes_written"}
