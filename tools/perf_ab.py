#!/usr/bin/env python
"""Interleaved A/B runs of the benchmark of record against a git revision.

Runs ``perfbench/run.py`` alternately on a base revision and on the
working tree, a pair at a time, and prints every reported metric's median,
min-max and per-pair delta.  Both sides of a pair use the same
``--seed`` (pair ``i`` uses ``seed + i``), and the side that runs first
alternates from pair to pair, so slow drift of a shared machine lands on
both sides equally.  Each metric also shows ``wins k/n`` -- the pairs in
which the working tree beats the base in the ``better`` direction that
``BENCHMARK.json`` declares (ties count for neither side) -- and the base
side's interquartile spread, the two numbers a claimed gain is held to.

Usage (from the repository root)::

    python tools/perf_ab.py --base HEAD --workload paper --pairs 5 --seconds 25
    python tools/perf_ab.py --base HEAD --workload paper --pairs 3 --seconds 25 --trace 1
    python tools/perf_ab.py --base origin/main --workload paper --pairs 3 --seconds 8 --gate

The base revision is exported with ``git archive`` into
``.bench_build/perf_ab/<commit>/`` (reused on later invocations): a plain
file tree is all ``perfbench`` needs, and unlike a worktree it leaves no
metadata behind in ``.git`` when a run is interrupted.  Uncommitted
changes take part on the working-tree side only.

Exits 1 when any run exits non-zero, reports ``correct: false`` or prints
no result; the numbers of a run that failed its own checks are not
comparable.  ``--json PATH`` also writes every run's raw result and the
per-metric summary (medians, base interquartile spread, wins).

``--gate`` turns the comparison into a regression gate: it also exits 1
when an end-to-end metric's median is worse than the base's by more than
that metric's ``BENCHMARK.json`` bound *and* the working tree is worse in
every pair.  One pair of the opposite sign (or a tie) is read as noise.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout


def export_revision(rev: str) -> Path:
    """The tree of ``rev`` under ``.bench_build/perf_ab/<commit>``."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    dest = ROOT / ".bench_build" / "perf_ab" / commit
    done = dest / ".exported"
    if not done.exists():
        dest.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(_git("archive", commit))) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(dest, filter="data")
            else:  # Python without extraction filters (< 3.10.12 / 3.11.4)
                tar.extractall(dest)
        done.write_text(commit + "\n")
    return dest


def run_once(tree: Path, args, seed: int) -> Dict:
    """One ``perfbench/run.py`` invocation in ``tree``; its JSON result."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(
        cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    lines = proc.stdout.strip().splitlines()
    result = {}
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {}
    result["exit_code"] = proc.returncode
    result["stderr"] = proc.stderr[-2000:]
    return result


def _problem(label: str, result: Dict) -> str:
    if result["exit_code"] != 0:
        return f"{label}: exit code {result['exit_code']}\n{result['stderr']}"
    if "correct" not in result:
        return f"{label}: printed no result\n{result['stderr']}"
    if not result["correct"]:
        return f"{label}: correct: false\n{result['stderr']}"
    return ""


def metric_directions() -> Dict[str, str]:
    """``{metric: "lower" | "higher"}``: the better direction of every
    metric ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: m["better"]
        for group in ("end_to_end", "per_layer")
        for m in spec.get(group, [])
    }


def end_to_end_bounds() -> Dict[str, float]:
    """``{metric: bound}`` of every end-to-end metric ``BENCHMARK.json``
    declares: the largest relative regression the gate lets through."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def gate_failures(rows: Dict[str, Dict], bounds: Dict[str, float]) -> List[str]:
    """The end-to-end metrics that regress beyond their bound.

    A metric fails when its median delta is worse than ``bound`` in its
    ``better`` direction and head is worse than base in every pair.
    """
    failures = []
    for name, bound in bounds.items():
        row = rows.get(name)
        if row is None or row["better"] is None or not row["base_median"]:
            continue
        sign = 1.0 if row["better"] == "lower" else -1.0
        delta = row["head_median"] / row["base_median"] - 1.0
        every_pair_worse = all(
            sign * (h - b) > 0 for b, h in zip(row["base"], row["head"])
        )
        if sign * delta > bound and every_pair_worse:
            failures.append(
                f"{name}: median {delta * 100:+.1f}% is worse than the "
                f"{bound * 100:.0f}% bound in all {row['pairs']} pairs"
            )
    return failures


def _iqr(vals: List[float]) -> float:
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q3 - q1


def summarize(
    pairs: List[Tuple[Dict, Dict]], better: Dict[str, str]
) -> Dict[str, Dict]:
    """Per metric: both sides' values, medians, the base side's
    interquartile spread, and the pairs head wins.

    A pair is a win when head beats base in the metric's ``better``
    direction; ties count for neither side.  ``wins`` is ``None`` for a
    metric with no declared direction.
    """
    rows: Dict[str, Dict] = {}
    for name, first in pairs[0][0]["metrics"].items():
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        head = [h["metrics"][name]["value"] for _, h in pairs]
        direction = better.get(name)
        wins = None
        if direction == "lower":
            wins = sum(h < b for b, h in zip(base, head))
        elif direction == "higher":
            wins = sum(h > b for b, h in zip(base, head))
        rows[name] = {
            "unit": first.get("unit", ""),
            "better": direction,
            "base": base,
            "head": head,
            "base_median": statistics.median(base),
            "head_median": statistics.median(head),
            "base_iqr": _iqr(base),
            "wins": wins,
            "pairs": len(pairs),
        }
    return rows


def format_summary(rows: Dict[str, Dict]) -> List[str]:
    """One line per metric: medians [min-max], delta, wins, base IQR,
    per-pair deltas."""
    out = [
        f"{'metric':<20} {'base median [min-max]':>30} "
        f"{'head median [min-max]':>30} {'delta':>8} {'wins':>6} "
        f"{'base IQR':>10}  per-pair deltas"
    ]
    for name, row in rows.items():
        unit = row["unit"]

        def cell(vals: List[float]) -> str:
            return (
                f"{statistics.median(vals):.4g} [{min(vals):.4g}-{max(vals):.4g}]"
                f" {unit}"
            )

        deltas = [
            f"{(h / b - 1) * 100:+.1f}%" if b else "n/a"
            for b, h in zip(row["base"], row["head"])
        ]
        mb, mh = row["base_median"], row["head_median"]
        delta = f"{(mh / mb - 1) * 100:+.1f}%" if mb else "n/a"
        wins = "n/a" if row["wins"] is None else f"{row['wins']}/{row['pairs']}"
        out.append(
            f"{name:<20} {cell(row['base']):>30} {cell(row['head']):>30} "
            f"{delta:>8} {wins:>6} {row['base_iqr']:>10.4g}  " + " ".join(deltas)
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every run's raw result here")
    parser.add_argument(
        "--gate", action="store_true",
        help="exit 1 when an end-to-end metric regresses beyond its "
             "BENCHMARK.json bound in every pair",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    try:
        base_tree = export_revision(args.base)
    except subprocess.CalledProcessError:
        parser.error(f"cannot export revision {args.base!r}")
    pairs: List[Tuple[Dict, Dict]] = []
    problems: List[str] = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = [("base", base_tree), ("head", ROOT)]
        if i % 2:
            order.reverse()
        got = {}
        for label, tree in order:
            got[label] = run_once(tree, args, seed)
            problem = _problem(f"pair {i} {label} (seed {seed})", got[label])
            if problem:
                problems.append(problem)
        pairs.append((got["base"], got["head"]))
        print(f"pair {i} (seed {seed}, {order[0][0]} first) done", flush=True)

    rows = {} if problems else summarize(pairs, metric_directions())
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"base": args.base, "workload": args.workload, "seconds": args.seconds,
             "trace": args.trace,
             "summary": {name: {k: row[k] for k in (
                 "better", "base_median", "head_median", "base_iqr", "wins", "pairs")}
                 for name, row in rows.items()},
             "pairs": [{"seed": args.seed + i, "base": b, "head": h}
                       for i, (b, h) in enumerate(pairs)]},
            indent=1,
        ))
    if problems:
        for problem in problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        return 1
    print(f"{args.workload}: {args.pairs} pairs x {args.seconds:g} s, "
          f"base {args.base}, trace {args.trace}")
    for line in format_summary(rows):
        print(line)
    if args.gate:
        failures = gate_failures(rows, end_to_end_bounds())
        for failure in failures:
            print(f"GATE FAILED: {args.workload} {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"gate: {args.workload} passes every end-to-end bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
