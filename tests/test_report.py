import dataclasses
import io
import json
import math

import pytest

import lsqcond as lc
from lsqcond import report
from lsqcond.errors import InvalidGeometry
from lsqcond.report import build_report, dump_json, format_number, write_csv


def test_format_number_17_digits():
    assert format_number(0.1) == "0.10000000000000001"
    assert format_number(2.0 * math.sqrt(2.0)) == "2.8284271247461903"
    assert format_number(3) == "3"
    assert format_number(True) == "true"


def test_format_number_rejects_non_finite():
    with pytest.raises(ValueError):
        format_number(float("nan"))


def test_dump_json_round_trips_and_is_stable():
    obj = {"a": 0.1, "b": [1, 2.5, None], "c": {"nested": "x,y"}, "d": []}
    text = dump_json(obj)
    assert text == dump_json(obj)
    parsed = json.loads(text)
    assert parsed["a"] == 0.1
    assert parsed["b"] == [1, 2.5, None]
    assert parsed["c"]["nested"] == "x,y"


def test_write_csv_quotes_commas():
    buf = io.StringIO()
    write_csv(buf, ["name", "value"], [["a,b", 1.5], ['say "hi"', 2]])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "name,value"
    assert lines[1] == '"a,b",1.5'
    assert lines[2] == '"say ""hi""",2'


def test_build_report_structure(e1_cache):
    rep = build_report(e1_cache)
    assert rep["schema"] == "lsq-cond/2"
    assert rep["problem"]["m"] == 2 and rep["problem"]["n"] == 1
    assert list(rep["estimates"]) == ["relative", "b-relative", "absolute"]
    for est in rep["estimates"].values():
        assert list(est) == ["chi_A_lower", "chi_A", "chi_A_upper", "chi_b"]
        assert est["chi_A_lower"] <= est["chi_A"] <= est["chi_A_upper"] * (1.0 + 1e-8)
    emp_block = rep["empirical"]
    assert list(emp_block) == ["scales", "value", "lower", "upper"]
    relative = rep["estimates"]["relative"]
    assert emp_block == {
        "scales": "relative", "value": relative["chi_A"], "lower": relative["chi_A_lower"],
        "upper": relative["chi_A_upper"],
    }
    assert rep["timings"] is None
    assert len(rep["prior_bounds"]) == 3
    # full report serializes deterministically
    assert dump_json(rep) == dump_json(rep)


def test_estimates_blocks_are_the_records_whole(gvl_cache):
    rep = build_report(gvl_cache)
    presets = lc.ScaleFactors.presets(gvl_cache)
    assert list(rep["estimates"]) == list(presets)
    for name, scales in presets.items():
        assert rep["estimates"][name] == dataclasses.asdict(lc.residual_condition_bounds(gvl_cache, scales))


def test_build_report_rejects_value_outside_sandwich(e1_cache, monkeypatch):
    upper = lc.residual_condition_bounds(e1_cache, lc.ScaleFactors.relative(e1_cache)).chi_A_upper
    for value in (upper * (1.0 + 1e-6), upper / math.sqrt(2.0) * (1.0 - 1e-6)):

        def escaped(cache, scales, value=value):
            return dataclasses.replace(lc.residual_condition_bounds(cache, scales), chi_A=value)

        monkeypatch.setattr(report, "residual_condition_bounds", escaped)
        with pytest.raises(InvalidGeometry):
            build_report(e1_cache)
