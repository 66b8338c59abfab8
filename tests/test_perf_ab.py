"""``tools/perf_ab.py``'s summary: wins per pair and the base side's spread."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "perf_ab.py"


@pytest.fixture(scope="module")
def perf_ab():
    spec = importlib.util.spec_from_file_location("perf_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(**values):
    return {"metrics": {name: {"value": v, "unit": "ms"} for name, v in values.items()}}


PAIRS = [
    # (base, head)
    (_run(job_ms=1.0, hit_pct=90.0, events=7.0), _run(job_ms=0.9, hit_pct=91.0, events=7.0)),
    (_run(job_ms=2.0, hit_pct=80.0, events=7.0), _run(job_ms=2.0, hit_pct=80.0, events=7.0)),
    (_run(job_ms=3.0, hit_pct=70.0, events=7.0), _run(job_ms=3.5, hit_pct=69.0, events=7.0)),
    (_run(job_ms=4.0, hit_pct=60.0, events=7.0), _run(job_ms=3.0, hit_pct=65.0, events=7.0)),
    (_run(job_ms=5.0, hit_pct=50.0, events=7.0), _run(job_ms=4.0, hit_pct=55.0, events=7.0)),
]
BETTER = {"job_ms": "lower", "hit_pct": "higher", "events": "lower"}


def test_wins_follow_the_declared_direction_and_ties_count_for_neither(perf_ab):
    rows = perf_ab.summarize(PAIRS, BETTER)
    # Lower is better: head wins pairs 0, 3, 4; pair 1 ties; pair 2 loses.
    assert rows["job_ms"]["wins"] == 3
    # Higher is better: the same pattern, mirrored.
    assert rows["hit_pct"]["wins"] == 3
    # All ties: no wins for head (and none for base either).
    assert rows["events"]["wins"] == 0
    assert all(row["pairs"] == 5 for row in rows.values())


def test_base_spread_is_the_base_interquartile_range(perf_ab):
    rows = perf_ab.summarize(PAIRS, BETTER)
    assert rows["job_ms"]["base_median"] == 3.0
    assert rows["job_ms"]["head_median"] == 3.0
    # Base values 1..5: quartiles 2 and 4.
    assert rows["job_ms"]["base_iqr"] == pytest.approx(2.0)
    assert rows["events"]["base_iqr"] == 0.0


def test_metric_without_direction_has_no_wins(perf_ab):
    rows = perf_ab.summarize(PAIRS, {"job_ms": "lower"})
    assert rows["hit_pct"]["wins"] is None
    lines = perf_ab.format_summary(rows)
    assert len(lines) == 1 + len(rows)
    assert " 3/5 " in next(line for line in lines if line.startswith("job_ms"))
    assert " n/a " in next(line for line in lines if line.startswith("hit_pct"))


def test_directions_come_from_the_benchmark_declaration(perf_ab):
    better = perf_ab.metric_directions()
    assert better["round_p50_ms"] == "lower"
    assert better["share_memo_hit_pct"] == "higher"


# ------------------------------------------------------------------ gate

BOUNDS = {"job_ms": 0.24, "hit_pct": 0.24}


def _pairs(base_vals, head_vals, name="job_ms"):
    return [(_run(**{name: b}), _run(**{name: h}))
            for b, h in zip(base_vals, head_vals)]


def _gate(perf_ab, pairs, better=None):
    rows = perf_ab.summarize(pairs, better or BETTER)
    return perf_ab.gate_failures(rows, BOUNDS)


def test_gate_fails_a_consistent_slowdown_beyond_the_bound(perf_ab):
    base = [1.0, 1.1, 0.9]
    failures = _gate(perf_ab, _pairs(base, [v * 1.3 for v in base]))
    assert len(failures) == 1
    assert failures[0].startswith("job_ms: median +30.0%")


def test_gate_fails_a_drop_of_a_higher_is_better_metric(perf_ab):
    base = [90.0, 80.0, 85.0]
    pairs = _pairs(base, [v * 0.7 for v in base], name="hit_pct")
    assert _gate(perf_ab, pairs) == [
        "hit_pct: median -30.0% is worse than the 24% bound in all 3 pairs"
    ]


def test_gate_passes_mixed_signs(perf_ab):
    # The median is 30 % worse, but one pair is faster: not a regression.
    base = [1.0, 1.0, 1.0]
    assert _gate(perf_ab, _pairs(base, [1.3, 1.4, 0.9])) == []


def test_gate_passes_a_no_op(perf_ab):
    base = [1.0, 1.1, 0.9]
    assert _gate(perf_ab, _pairs(base, list(base))) == []


def test_gate_passes_a_consistent_slowdown_inside_the_bound(perf_ab):
    base = [1.0, 1.1, 0.9]
    assert _gate(perf_ab, _pairs(base, [v * 1.2 for v in base])) == []


def test_gate_bounds_come_from_the_benchmark_declaration(perf_ab):
    bounds = perf_ab.end_to_end_bounds()
    assert set(bounds) == {"job_ms", "round_p50_ms", "round_p99_ms", "setup_s"}
    assert all(0 < bound < 1 for bound in bounds.values())
