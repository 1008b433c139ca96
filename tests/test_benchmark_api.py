"""The benchmark's correctness gate, and the names its scripts take from
fdek.

``bench/selfcheck.py`` checks the benchmark's reference evaluator, an
evaluator independent of fdek, against fdek.  Each workload's ``check``
compares the outputs of one round with that reference; here each workload
runs one plain and one traced round at seed 2, in process, as
``bench/run.py`` runs them, and no operation may raise: fdek walks
formulas without recursion, so even the 600- and 2000-deep inputs, which
the benchmark lets fail, must pass.  A traced round also runs the
per-layer probes, which outside the tests are the only callers of
``saturation_step``, ``Branch.copy`` and ``BulkSpace(n, names, masks)``.
A new benchmark check is a test here, never a CI step.

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

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture
def bench(monkeypatch):
    """``bench/`` importable, and the repository root the working
    directory, as the benchmark's scripts expect; both undone after."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(ROOT)


def bench_round(wl, tr) -> list:
    """The (operation, output) pairs of one round of ``wl``, traced under
    ``tr`` if given, each operation in its span as in ``bench/run.py``."""
    pairs = []
    for i, op in enumerate(wl.ops):
        if tr is None:
            pairs.append((op, wl.run(i, None)))
        else:
            with tr.span("op." + wl.name, index=i):
                pairs.append((op, wl.run(i, tr)))
    return pairs


def test_the_benchmark_selfcheck_passes(bench, capsys):
    selfcheck = importlib.import_module("selfcheck")
    assert selfcheck.main([]) == 0, capsys.readouterr().out


@pytest.mark.parametrize("name", ["prove", "oracle", "scans", "deep"])
def test_a_plain_and_a_traced_round_pass_the_benchmark_checks(bench, name):
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    wl = workloads.WORKLOADS[name](2)
    wl.warmup()
    plain = bench_round(wl, None)
    assert wl.check(plain) == []
    tr = spans.Tracer()
    traced = bench_round(wl, tr)
    assert [wl.fingerprint(out) for _, out in traced] == [wl.fingerprint(out) for _, out in plain]
    peak = [0]
    wl.probe(tr, traced, peak)
    counts = workloads.fixed_probe(tr, peak)
    # Every per-layer metric has spans to be read from, the bulk probe a
    # tracemalloc peak, and the tableau probe its rules.
    assert {ratio[2] for ratio in spans.RATIOS} <= {span.name for span in tr.spans}
    assert peak[0] > 0 and counts["rules"] > 0


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
