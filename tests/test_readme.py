"""The README's library sketch, run against the package as it is."""

import ast
import re
from pathlib import Path

import numpy as np

import lsqcond

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_sketch() -> str:
    """The README's "Library sketch" section, up to the next heading."""
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]


def test_library_sketch_runs():
    code = re.search(r"```python\n(.*?)```", _library_sketch(), re.S)[1]
    rng = np.random.default_rng(0)
    scope = {"A": rng.standard_normal((6, 3)), "b": rng.standard_normal(6), "rng": rng, "np": np}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["ok"], scope["detail"]


def test_library_sketch_counts_the_exported_names():
    count = int(re.search(r"`lsqcond` exports (\d+) names", _library_sketch())[1])
    tree = ast.parse(Path(lsqcond.__file__).read_text(encoding="utf-8"))
    names = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(names) == count
