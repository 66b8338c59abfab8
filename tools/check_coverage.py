#!/usr/bin/env python
"""Enforce per-file line-coverage floors from a Cobertura ``coverage.xml``.

CI runs the tier-1 suite under ``pytest-cov`` scoped to the engine refresh
hot modules and then calls this script, which fails the job when any listed
file drops below its committed floor.  The floors are deliberately part of
the repository (not CI-config knobs): lowering one is a reviewed change.

Usage::

    python tools/check_coverage.py [coverage.xml]

Only the standard library is required, so the script also runs locally for
anyone who has ``coverage``/``pytest-cov`` installed; the packages are CI
dependencies, not runtime ones.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

#: path-suffix -> minimum line coverage (percent).  Paths are matched
#: against the ``filename`` attribute of each ``<class>`` element, which
#: pytest-cov emits relative to the source root (``src/``).
FLOORS = {
    "repro/cluster/xen.py": 90.0,
    "repro/engine/datacenter.py": 90.0,
}


def file_line_rates(root: ET.Element) -> dict:
    """Aggregate hit/total line counts per filename across packages."""
    counts: dict = {}
    for cls in root.iter("class"):
        filename = cls.get("filename", "").replace("\\", "/")
        hits, total = counts.get(filename, (0, 0))
        for line in cls.iter("line"):
            total += 1
            if int(line.get("hits", "0")) > 0:
                hits += 1
        counts[filename] = (hits, total)
    return counts


def main(argv) -> int:
    path = argv[1] if len(argv) > 1 else "coverage.xml"
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        print(f"check_coverage: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    counts = file_line_rates(root)
    failures = []
    for suffix, floor in sorted(FLOORS.items()):
        matches = [f for f in counts if f == suffix or f.endswith("/" + suffix)]
        if not matches:
            failures.append(f"{suffix}: not present in {path} "
                            f"(is the --cov scope right?)")
            continue
        hits = sum(counts[f][0] for f in matches)
        total = sum(counts[f][1] for f in matches)
        pct = 100.0 * hits / total if total else 0.0
        status = "ok" if pct >= floor else "FAIL"
        print(f"{suffix}: {pct:.1f}% line coverage "
              f"({hits}/{total} lines, floor {floor:.0f}%) {status}")
        if pct < floor:
            failures.append(f"{suffix}: {pct:.1f}% < floor {floor:.0f}%")
    if failures:
        print("coverage floors violated:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
