"""Condition report assembly and deterministic JSON/CSV serialization.

Reports must be byte-identical for identical inputs, so floats
are always written with 17 significant digits (enough to round-trip a
double exactly) and key order is fixed by construction. Timings are only
filled in when explicitly requested, since they would break reproducibility.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

from .conditioning import (
    SCALE_PRESETS,
    ScaleFactors,
    projection_condition_bounds,
    residual_condition_bounds,
    scale_preset,
)
from .core import LsCache, geometry
from .errors import InvalidGeometry
from .prior_bounds import compare_table

SCHEMA = "lsq-cond/2"
INDENT = 2


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build_report(
    cache: LsCache,
    matrix_file: str | None = None,
    rhs_file: str | None = None,
) -> dict[str, Any]:
    """Assemble the full analysis record as a plain nested dict.

    The geometry, the estimates and the published-bounds table all come
    from the solved cache. Each preset's estimates hold its exact value
    chi_A; InvalidGeometry is raised if any escapes its sandwich, so a
    report can never assert an inconsistent value. "empirical" repeats the
    relative preset's. "geometry" is the Geometry record whole, in field
    order. "timings" is None; the caller fills it in when asked to, since
    it breaks reproducibility.
    """
    problem = cache.problem
    geom = geometry(cache)
    bounds = {name: residual_condition_bounds(cache, scale_preset(name, cache)) for name in SCALE_PRESETS}
    for name, est in bounds.items():
        if not est.sandwich_holds():
            raise InvalidGeometry(
                f"exact value {est.chi_A} outside [{est.chi_A_lower}, {est.chi_A_upper}] under the {name} preset"
            )

    proj = projection_condition_bounds(cache, ScaleFactors.relative(cache))
    return {
        "schema": SCHEMA,
        "problem": {
            "m": problem.m,
            "n": problem.n,
            "matrix_file": matrix_file,
            "rhs_file": rhs_file,
            "matrix_sha256": file_sha256(matrix_file) if matrix_file else None,
            "rhs_sha256": file_sha256(rhs_file) if rhs_file else None,
        },
        "geometry": dataclasses.asdict(geom),
        "norms": {
            "A": cache.s[0],
            "b": cache.norm_b,
            "r": cache.norm_r,
            "Ax": cache.norm_Ax,
            "x": cache.norm_x,
        },
        "estimates": {
            name: {"chi_A_lower": est.chi_A_lower, "chi_A": est.chi_A,
                   "chi_A_upper": est.chi_A_upper, "chi_b": est.chi_b}
            for name, est in bounds.items()
        },
        "projection": {
            "chi_Ax_lower": proj.chi_A_lower,
            "chi_Ax_upper": proj.chi_A_upper,
            "chi_Ax_b": proj.chi_b,
        },
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
    """Fixed 17-significant-digit rendering for floats; ints pass through."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    value = float(x)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value} in report")
    return format(value, ".17g")


def dump_json(obj: Any) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-digit floats,
    INDENT spaces per level."""
    pieces: list[str] = []
    _emit(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _emit(obj: Any, out: list[str], level: int) -> None:
    pad = " " * (INDENT * (level + 1))
    end_pad = " " * (INDENT * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (bool, int, float, np.integer, np.floating)):
        out.append(format_number(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, value) in enumerate(obj.items()):
            out.append(f"{pad}{json.dumps(str(key))}: ")
            _emit(value, out, level + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(end_pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for k, value in enumerate(seq):
            out.append(pad)
            _emit(value, out, level + 1)
            out.append(",\n" if k < len(seq) - 1 else "\n")
        out.append(end_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_csv(fh, header: list[str], rows: list[Sequence[Any]]) -> None:
    """Comma-separated output with '.' radix and 17-digit floats."""
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
