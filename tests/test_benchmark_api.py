"""The names the benchmark's scripts take from fdek still resolve.

``bench/workloads.py`` and ``bench/selfcheck.py`` import from ``fdek`` and
call a few entry points beside the CLI's (the per-layer probes).  A trim of
the package that drops one of them would break the benchmark without
failing any other test.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from fdek import Branch, Labelled, Val, parse_sequent
from fdek.bulkeval import BulkSpace

BENCH = Path(__file__).resolve().parent.parent / "bench"


def fdek_imports(path: Path) -> list[tuple[str, str]]:
    """``(module, name)`` for each name a script imports from ``fdek`` or a
    submodule, at any depth of the file."""
    return [(node.module, alias.name) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fdek"
            for alias in node.names]


@pytest.mark.parametrize("script", ["workloads.py", "selfcheck.py"])
def test_every_name_the_benchmark_imports_resolves(script):
    found = fdek_imports(BENCH / script)
    assert found, script
    for module, name in found:
        assert hasattr(importlib.import_module(module), name), f"{script}: {module}.{name}"


def test_the_probes_entry_points_run():
    # _step_probe builds a branch from items and copies it; _bulk_probe
    # builds a space over every relation mask and asks for its first
    # countermodel.
    s = parse_sequent("p |- ~p")
    b = Branch.from_items((Labelled("w0", s.premise, Val.T),
                           Labelled("w0", s.conclusion, Val.TBAR)))
    c = b.copy()
    assert c is not b and c.items == b.items and len(c) == len(b) == 2
    masks = np.arange(2 ** (2 * 2), dtype=np.int64)
    space = BulkSpace(2, ["p"], masks)
    assert space.first_countermodel(s) == (0, 0, 0)
    assert BulkSpace(2, ["p"], masks).first_countermodel(parse_sequent("p |- p")) is None
