"""Condition report assembly and deterministic JSON/CSV serialization.

Reports must be byte-identical for identical inputs, so floats are
always written as repr writes them, the shortest decimal that reads back
to the same double, and key order is fixed by construction. Timings are
only filled in when explicitly requested, since they would break
reproducibility. No file is read here: input digests come from mmio.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Sequence
from typing import Any

import numpy as np

from .conditioning import ScaleFactors, projection_condition_bounds, residual_condition_bounds
from .core import LsCache, geometry
from .errors import InvalidGeometry
from .prior_bounds import compare_table

SCHEMA = "lsq-cond/3"


def build_report(
    cache: LsCache,
    matrix: tuple[str, str] | None = None,
    rhs: tuple[str, str] | None = None,
) -> dict[str, Any]:
    """Assemble the full analysis record as a plain nested dict.

    "problem" names the input files given as matrix and rhs, (path, SHA-256)
    pairs whose digests mmio returned for the bytes it parsed. The geometry,
    the estimates and the published-bounds table all come from the solved
    cache. "estimates" holds, for each of ScaleFactors.presets, the
    residual's ConditionEstimates record whole, in field order, and
    "projection" the projection's under the relative preset;
    InvalidGeometry is raised if an exact value chi_A in any of them
    escapes its sandwich, so a report can never assert an inconsistent
    value. "empirical" repeats the relative preset's residual values.
    "geometry" is the Geometry record whole, in field order. "timings" is
    None; the caller fills it in when asked to, since it breaks
    reproducibility.
    """
    problem = cache.problem
    (matrix_file, matrix_sha256), (rhs_file, rhs_sha256) = matrix or (None, None), rhs or (None, None)
    geom = geometry(cache)
    presets = ScaleFactors.presets(cache)
    bounds = {name: residual_condition_bounds(cache, scales) for name, scales in presets.items()}
    proj = projection_condition_bounds(cache, presets["relative"])
    checked = {f"estimates.{name}": est for name, est in bounds.items()} | {"projection": proj}
    for block, est in checked.items():
        if not est.sandwich_holds():
            raise InvalidGeometry(
                f"exact value {est.chi_A} outside [{est.chi_A_lower}, {est.chi_A_upper}] in {block}"
            )
    return {
        "schema": SCHEMA,
        "problem": {
            "m": problem.m,
            "n": problem.n,
            "matrix_file": matrix_file,
            "rhs_file": rhs_file,
            "matrix_sha256": matrix_sha256,
            "rhs_sha256": rhs_sha256,
        },
        "geometry": dataclasses.asdict(geom),
        "norms": {
            "A": cache.s[0],
            "b": cache.norm_b,
            "r": cache.norm_r,
            "Ax": cache.norm_Ax,
            "x": cache.norm_x,
        },
        "estimates": {name: dataclasses.asdict(est) for name, est in bounds.items()},
        "projection": dataclasses.asdict(proj),
        "empirical": {
            "scales": "relative",
            "value": bounds["relative"].chi_A,
            "lower": bounds["relative"].chi_A_lower,
            "upper": bounds["relative"].chi_A_upper,
        },
        "prior_bounds": [dataclasses.asdict(row) for row in compare_table(cache)],
        "timings": None,
    }


def format_number(x: Any) -> str:
    """A float as repr writes it, the shortest decimal that reads back to
    the same double; ints and bools as JSON writes them."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    value = float(x)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value} in report")
    return repr(value)


def dump_json(obj: Any) -> str:
    """Deterministic JSON text: insertion-ordered keys, shortest round-trip
    floats, two spaces per level."""
    return json.dumps(obj, indent=2, allow_nan=False, default=_plain) + "\n"


def _plain(obj: Any) -> Any:
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_csv(fh, header: list[str], rows: list[Sequence[Any]]) -> None:
    """Comma-separated output with '.' radix and shortest round-trip floats."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_csv_cell(value) for value in row) + "\n")


def _csv_cell(value: Any) -> str:
    if isinstance(value, str):
        if any(ch in value for ch in ',"\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, (bool, int, float, np.integer, np.floating)):
        if isinstance(value, float) and math.isnan(value):
            return "nan"
        return format_number(value)
    raise TypeError(f"cannot serialize {type(value).__name__} in CSV")
