"""``tools/round_anatomy.py``: per-round latency by round kind."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "round_anatomy.py"


@pytest.fixture(scope="module")
def anatomy():
    spec = importlib.util.spec_from_file_location("round_anatomy", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_round_kinds(anatomy):
    assert anatomy.classify(0, False) == "empty-queue"
    assert anatomy.classify(3, True) == "consolidation"
    assert anatomy.classify(1, False) == "one-arrival"
    assert anatomy.classify(2, False) == "other"


def test_summary_shares_percentiles_and_slowest_kinds(anatomy):
    rounds = [(0.001, "one-arrival")] * 150 + [(0.010, "consolidation")] * 2
    rounds += [(0.0001, "empty-queue")] * 48 + [(0.5, None)]
    summary = anatomy.summarize(rounds, anatomy.perfbench(ROOT)[2])
    assert summary["rounds"] == 201
    kinds = summary["kinds"]
    assert kinds["consolidation"]["count"] == 2
    assert kinds["consolidation"]["p99_ms"] == pytest.approx(10.0)
    assert kinds["one-arrival"]["p50_ms"] == pytest.approx(1.0)
    assert kinds["other"] == {"count": 0, "share_pct": 0.0, "p50_ms": 0.0, "p99_ms": 0.0}
    # The three slowest: the unclassified round and both consolidations.
    assert summary["n_top"] == 3
    assert summary["top"] == {None: 1, "consolidation": 2}
    # A round no kind claims leaves the kinds short of the round count.
    assert sum(k["count"] for k in kinds.values()) == 200


def test_one_paper_episode_classifies_every_round(anatomy, capsys):
    summary, problems = anatomy.run("paper", 1, ROOT)
    assert problems == []
    kinds = summary["kinds"]
    assert sum(k["count"] for k in kinds.values()) == summary["rounds"] > 0
    assert kinds["consolidation"]["count"] > 0 and kinds["one-arrival"]["count"] > 0
    assert sum(k["share_pct"] for k in kinds.values()) == pytest.approx(100.0)
    assert sum(summary["top"].values()) == summary["n_top"]
    lines = anatomy.format_table("paper", 1, summary)
    assert len(lines) == 2 + len(anatomy.KINDS)
