"""Tests of the benchmark itself: inputs, metric names, tracing, smoke runs.

Run from the repository root with `PYTHONPATH=src python3 -m pytest bench/tests`.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _smoke(name, tmp_path):
    return workloads.build(name, workloads.make_inputs(name, 3), tmp_path, smoke=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_deterministic_for_a_seed(name):
    first = workloads.make_inputs(name, 11)
    assert first == workloads.make_inputs(name, 11)
    assert json.loads(json.dumps(first)) == first
    assert first != workloads.make_inputs(name, 12)


def test_metric_names_and_limits_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert 1 <= len(metrics.PER_LAYER) <= 128
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in metrics.PER_LAYER]
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_pass_of_each_workload(name, tmp_path):
    workload = _smoke(name, tmp_path)
    phase = run.measure(workload, 0.0)
    assert phase.rounds == 1
    assert phase.failed() == 0, [(r.task, r.error, r.problem) for r in phase.records]
    values = metrics.end_to_end(phase, workload.top, [0.5])
    assert set(values) == {m[0] for m in metrics.END_TO_END}
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_are_equal(name, tmp_path):
    import qlevy.gram
    import qlevy.subcoalg

    original = qlevy.subcoalg.conv_exp
    workload = _smoke(name, tmp_path)
    untraced, traced, _probes, values, _dropped = run.traced_run(
        workload, 0.0, tmp_path / "spans.tsv")
    assert run.outputs_match(untraced, traced)
    assert traced.failed() == 0
    assert set(values) == {m[0] for m in metrics.PER_LAYER}
    assert (tmp_path / "spans.tsv").read_text(encoding="utf-8").count("\n") > 1
    # the wrappers are gone again, including the copies bound by name
    assert qlevy.subcoalg.conv_exp is original
    assert qlevy.gram.conv_exp is original


def test_tracer_self_time_excludes_children():
    import qlevy.ncpoly
    from qlevy.constructions import make_azema

    B, _prim, _psi = make_azema(2.0)
    p = qlevy.ncpoly.NcPoly.word((0, 1), 0.5)
    with tracing.Tracer() as tracer:
        qlevy.ncpoly.multiply(p, p, B.algebra)
    nf = tracer.stats["ncpoly.normal_form"]
    mul = tracer.stats["ncpoly.multiply"]
    assert (mul.calls, nf.calls) == (1, 1)
    assert tracer.edges[("ncpoly.multiply", "ncpoly.normal_form")] == 1
    assert mul.self == pytest.approx(mul.incl - nf.incl)
    assert tracer.layer_self("ncpoly") == pytest.approx(mul.incl)
