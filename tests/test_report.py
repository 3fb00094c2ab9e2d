import dataclasses
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lsqcond as lc
from lsqcond import report
from lsqcond.errors import InvalidGeometry
from lsqcond.report import build_report, dump_json, format_number, write_csv
from conftest import both_branches


def _bits(x):
    return struct.pack("<d", x)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_floats_are_written_as_the_shortest_round_trip_decimal(x):
    text = format_number(x)
    assert text == repr(x)
    assert _bits(float(text)) == _bits(x)  # bitwise: -0.0 keeps its sign
    parsed = json.loads(dump_json({"v": x, "scalar": np.float64(x), "array": np.array([x])}))
    for value in (parsed["v"], parsed["scalar"], parsed["array"][0]):
        assert type(value) is float and _bits(value) == _bits(x)


def test_format_number_writes_ints_and_bools_as_json():
    assert format_number(3) == "3" and format_number(np.int64(-7)) == "-7"
    assert format_number(True) == "true" and format_number(False) == "false"


def test_format_number_rejects_non_finite():
    with pytest.raises(ValueError):
        format_number(float("nan"))
    with pytest.raises(ValueError):
        dump_json({"v": math.inf})


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
    assert rep["schema"] == "lsq-cond/3"
    assert rep["problem"]["m"] == 2 and rep["problem"]["n"] == 1
    assert list(rep["estimates"]) == ["relative", "b-relative", "absolute"]
    for est in [*rep["estimates"].values(), rep["projection"]]:
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
    proj = lc.projection_condition_bounds(gvl_cache, presets["relative"])
    assert rep["projection"] == dataclasses.asdict(proj)


def test_projection_chi_A_scales_to_the_residual_value():
    # the two Jacobians differ only in sign, so the unscaled exact values agree
    for cache in both_branches(6, 26):
        rep = build_report(cache)
        proj, norms = rep["projection"], rep["norms"]
        residual = rep["estimates"]["relative"]["chi_A"] * norms["r"]
        assert proj["chi_A"] * norms["Ax"] == pytest.approx(residual, rel=1e-12, abs=0.0)
        if cache.problem.m >= cache.problem.n + 2:
            assert proj["chi_A"] == proj["chi_A_upper"]


def test_build_report_rejects_value_outside_sandwich(e1_cache, monkeypatch):
    # the projection's record passes the same guard as the residual's
    targets = {"residual_condition_bounds": "estimates.relative", "projection_condition_bounds": "projection"}
    for target, block in targets.items():
        bounds = getattr(lc, target)
        upper = bounds(e1_cache, lc.ScaleFactors.presets(e1_cache)["relative"]).chi_A_upper
        for value in (upper * (1.0 + 1e-6), upper / math.sqrt(2.0) * (1.0 - 1e-6)):

            def escaped(cache, scales, bounds=bounds, value=value):
                return dataclasses.replace(bounds(cache, scales), chi_A=value)

            with monkeypatch.context() as patch:
                patch.setattr(report, target, escaped)
                with pytest.raises(InvalidGeometry, match=f" in {block}$"):
                    build_report(e1_cache)
