"""Each output check accepts real outputs and rejects a perturbed one.

    PYTHONPATH=src python -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import weylval as wv  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

ONE = wv.ValueGroupElement.rational(1)


@pytest.fixture(scope="module")
def descs():
    return wl.load_descriptors()


def _outputs(run_op, ops, descs):
    state: dict = {}
    return [run_op(op, descs, state) for op in ops]


def _has(failures, text):
    return any(text in message for message in failures)


# -- query -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def query(descs):
    ops = wl.round_inputs(wl.WORKLOADS["query"], "test", 0, descs)
    return ops, _outputs(wl.run_query, ops, descs)


def _index(ops, fixture, role):
    return next(i for i, op in enumerate(ops) if op.fixture == fixture and op.role == role)


def test_query_outputs_pass(query, descs):
    ops, outputs = query
    assert checks.check_query(ops, outputs, descs) == []


def test_query_rejects_wrong_product_value(query, descs):
    ops, outputs = query
    i = _index(ops, "worked", "fg")
    bad = list(outputs)
    bad[i] = (outputs[i][0].add(ONE), outputs[i][1])
    failures = checks.check_query(ops, bad, descs)
    assert _has(failures, "v(fg) != v(f) + v(g)") and _has(failures, "vs shadow")


def test_query_rejects_wrong_product_sign(query, descs):
    ops, outputs = query
    i = _index(ops, "worked", "fg")
    bad = list(outputs)
    bad[i] = (outputs[i][0], (-outputs[i][1][0],) + outputs[i][1][1:])
    assert _has(checks.check_query(ops, bad, descs), "sign(fg) != sign(f) sign(g)")


def test_query_rejects_negative_square(query, descs):
    ops, outputs = query
    i = _index(ops, "halving", "gg")
    bad = list(outputs)
    bad[i] = (outputs[i][0], (-1,) * len(outputs[i][1]))
    assert _has(checks.check_query(ops, bad, descs), "sign(gg)")


def test_query_rejects_misparsed_text(query, descs):
    ops, outputs = query
    i = _index(ops, "worked", "g")
    bad = list(ops)
    bad[i] = replace(ops[i], args=(ops[i].args[0], ops[i].args[1].mul(wv.WeylElement.y())))
    assert _has(checks.check_query(bad, outputs, descs), "vs shadow")


def test_query_rejects_value_disagreeing_with_shadow(query, descs):
    ops, outputs = query
    i = _index(ops, "constant131", "f")
    bad = list(outputs)
    bad[i] = (outputs[i][0].add(ONE), outputs[i][1])
    assert _has(checks.check_query(ops, bad, descs), "vs shadow")


def test_query_undetermined_value_on_bare_prefix(descs):
    ops = [wl.Op("query", "single24", 0, "f", ("x*y^2 - 4", wv.parse_expr("x*y^2 - 4")))]
    outputs = _outputs(wl.run_query, ops, descs)
    assert outputs == [(None, ())]
    assert checks.check_query(ops, outputs, descs) == []
    assert _has(checks.check_query(ops, [(ONE, (1, 1))], descs), "vs shadow")


# -- tower -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tower(descs):
    ops = [
        wl.Op("tower", "halving", 0, "product", ((1, 2, ((1, 2), (2, 1))),)),
        wl.Op("tower", "constant131", 1, "product", ((1, 2, ((1, 4),)),)),
        wl.Op("tower", "constant131", 2, "sum", ((3, 1, ((1, 4),)), (-2, 0, ((0, 1), (1, 2))))),
    ]
    return ops, _outputs(wl.run_tower, ops, descs)


def test_tower_outputs_pass(tower, descs):
    ops, outputs = tower
    assert checks.check_tower(ops, outputs, descs) == []


@pytest.mark.parametrize("i", [0, 2])
def test_tower_rejects_wrong_value(tower, descs, i):
    ops, outputs = tower
    bad = list(outputs)
    bad[i] = (outputs[i][0].add(ONE), outputs[i][1])
    assert _has(checks.check_tower(ops, bad, descs), "expected")


def test_tower_rejects_negative_even_power(tower, descs):
    ops, outputs = tower
    bad = list(outputs)
    bad[1] = (outputs[1][0], (1, -1))
    assert _has(checks.check_tower(ops, bad, descs), "even power")


# -- convert -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def convert(descs):
    ops = [wl.Op("convert", "constant131", 0, "rule", (None, d)) for d in range(1, 5)]
    ops.append(wl.Op("convert", "worked", 4, "terminal", (1, 16)))
    element = wv.parse_expr("x^2*y^3 - 3*x*y + 2")
    ops.append(wl.Op("roundtrip", "worked", 5, "sample", (1, element)))
    return ops, _outputs(wl.run_convert, ops, descs)


def test_convert_outputs_pass(convert, descs):
    ops, outputs = convert
    assert checks.check_convert(ops, outputs, descs) == []


def test_convert_rejects_wrong_exponent(convert, descs):
    ops, outputs = convert
    bad = list(outputs)
    entries = list(outputs[2].explicit_entries)
    entries[-1] = (entries[-1][0] + wv.Rat(1, 10**6), entries[-1][1])
    bad[2] = wv.ZSequence(entries, None)
    assert _has(checks.check_convert(ops, bad, descs), "depth 3: exponents")


def test_convert_rejects_non_prefix(convert, descs):
    ops, outputs = convert
    bad = list(outputs)
    entries = list(outputs[3].explicit_entries)
    entries[0] = (entries[0][0], entries[0][1] * 2)
    bad[3] = wv.ZSequence(entries, None)
    assert _has(checks.check_convert(ops, bad, descs), "depth 3 is no prefix")


def test_convert_rejects_missing_terminal(convert, descs):
    ops, outputs = convert
    bad = list(outputs)
    bad[4] = wv.ZSequence(outputs[4].explicit_entries, None)
    assert _has(checks.check_convert(ops, bad, descs), "no terminal")


def test_convert_rejects_roundtrip_mismatch(convert, descs):
    ops, outputs = convert
    bad = list(outputs)
    bad[5] = (outputs[5][0], outputs[5][1].add(ONE))
    assert _has(checks.check_convert(ops, bad, descs), "vs z_eval")


# -- the benchmark's own definition ------------------------------------------------


def test_inputs_repeat_for_a_seed(descs):
    for workload in wl.WORKLOADS.values():
        a = wl.round_inputs(workload, "7", 0, descs)
        b = wl.round_inputs(workload, "7", 0, descs)
        assert [replace(op, args=repr(op.args)) for op in a] == [
            replace(op, args=repr(op.args)) for op in b
        ]
        assert len(a) >= 20


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    tracer = type("T", (), {"calls": {}, "self_ref_s": {}, "terms_out": 0,
                            "entries_out": 0, "rebuilds": 0})()
    names = [w["name"] for w in spec["per_layer"]]
    for name in names:
        layer = name.rsplit(".", 1)[0]
        tracer.calls.setdefault(layer, 0)
        tracer.self_ref_s.setdefault(layer, 0.0)
    assert sorted(run.layer_metrics(tracer, 1)) == sorted(names)
