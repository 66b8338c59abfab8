"""Metrics collection for datacenter runs.

Implements exactly the columns of the paper's Tables II–V:

* ``Work`` — time-averaged count of *working* nodes (hosting ≥ 1 VM),
* ``ON``  — time-averaged count of powered-on (or booting) nodes,
* ``CPU (h)`` — integral of the *reserved* CPU over time, in core-hours.
  Reserved (requested) CPU — not granted shares — is what stretches when a
  policy overcommits hosts and jobs linger, which is how the paper's RD
  row reaches 14 597 CPU·h against BF's 6 055 for the same workload,
* ``Pwr (kWh)`` — total energy, summed over per-host exact integrals,
* ``S (%)`` / ``delay (%)`` — mean client satisfaction / execution stretch,
* ``Mig`` — completed migrations.

All time-weighted signals are exact between events (piecewise-constant).

The node-state signals are **delta-maintained**: each host's contribution
(online 0/1, working 0/1, reserved CPU) is cached, and the engine reports
per-host transitions through :meth:`MetricsCollector.host_changed` during
its dirty-host sweep.  :meth:`MetricsCollector.refresh` then just samples
the running totals — O(1) per event instead of a scan over every host ×
resident VM.  The working/online counts are integers, so the totals are
exactly the from-scratch counts; the reserved-CPU total is float-exact for
requirement values with short binary fractions (the synthetic workloads
use whole core-percents, and SLA inflation scales by 5/4), which
:meth:`verify_against_scan` checks in the property tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.energy import EnergyAccount
from repro.cluster.host import Host
from repro.des.monitor import CounterSet, TimeWeightedValue
from repro.errors import StateError
from repro.units import CPU_PCT_PER_CORE, HOUR

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """Aggregates time-weighted and counted metrics during a run."""

    def __init__(
        self,
        hosts: Sequence[Host],
        start_time: float = 0.0,
        *,
        record_power_series: bool = False,
    ) -> None:
        self._hosts = list(hosts)
        self.working_nodes = TimeWeightedValue(start_time, 0.0)
        self.online_nodes = TimeWeightedValue(start_time, 0.0)
        self.reserved_cpu_pct = TimeWeightedValue(start_time, 0.0)
        self.counters = CounterSet()
        self.host_energy: Dict[int, EnergyAccount] = {
            h.host_id: EnergyAccount(start_time, h.power_watts())
            for h in self._hosts
        }
        self.datacenter_power = EnergyAccount(
            start_time,
            sum(h.power_watts() for h in self._hosts),
            record_series=record_power_series,
        )
        self._last_watts: Dict[int, float] = {
            h.host_id: h.power_watts() for h in self._hosts
        }
        self._total_watts = sum(self._last_watts.values())

        # Per-host node-state contributions and their running totals.
        self._online = 0
        self._working = 0
        self._reserved = 0.0
        self._contrib: Dict[int, Tuple[int, int, float]] = {}
        for h in self._hosts:
            c = self._contribution(h)
            self._contrib[h.host_id] = c
            self._online += c[0]
            self._working += c[1]
            self._reserved += c[2]

    # -------------------------------------------------------------- updates

    @staticmethod
    def _contribution(host: Host) -> Tuple[int, int, float]:
        """One host's (online, working, reserved-CPU) terms; O(1) reads."""
        if not host.is_available:
            return (0, 0, 0.0)
        working = 1 if (host.is_working or host.operations) else 0
        return (1, working, host.cpu_reserved())

    def host_changed(self, host: Host) -> None:
        """Fold one host's state transition into the running totals.

        The engine calls this for every dirty host (and on SLA requirement
        inflation, which dirties nothing); anything that can change a
        host's contribution passes through one of those two paths.
        """
        old = self._contrib[host.host_id]
        new = self._contribution(host)
        if new != old:
            self._online += new[0] - old[0]
            self._working += new[1] - old[1]
            self._reserved += new[2] - old[2]
            self._contrib[host.host_id] = new

    def node_counts(self) -> Tuple[int, int]:
        """Current exact ``(working, online)`` totals — O(1).

        The λ controller's measurement: callers must first fold any
        pending dirty hosts through :meth:`host_changed` (the engine's
        ``_node_counts`` wrapper does) so the totals reflect the live
        host objects.  Uses the same per-host predicates as
        :meth:`~repro.scheduling.power_manager.PowerManager.working_count`
        / ``online_count``, so the counts equal a full scan.
        """
        return self._working, self._online

    def refresh(self, now: float) -> None:
        """Sample the node-state signals at ``now`` — O(1).

        Called on every event even when nothing changed: skipping a sample
        would merge integral segments and change the floating-point
        rounding of the Work/ON/CPU(h) columns relative to the historical
        every-event scan.
        """
        self.working_nodes.update(now, float(self._working))
        self.online_nodes.update(now, float(self._online))
        self.reserved_cpu_pct.update(now, self._reserved)

    def verify_against_scan(self) -> bool:
        """Debug oracle: compare the running totals with a full host scan.

        Exact comparison for the integer counts; the reserved-CPU float is
        compared exactly too — callers feeding requirement values with
        long binary fractions should expect (and test for) ULP-level
        drift instead.  Raises :class:`~repro.errors.StateError` naming
        the drifted total (online, working or reserved), else returns True.
        """
        working = 0
        online = 0
        reserved = 0.0
        for h in self._hosts:
            if h.is_available:
                online += 1
                if h.is_working or h.operations:
                    working += 1
                reserved += h.cpu_reserved()
        for name, kept, scanned in (
            ("online", self._online, online),
            ("working", self._working, working),
            ("reserved", self._reserved, reserved),
        ):
            if kept != scanned:
                raise StateError(f"{name} total {kept!r} != scan {scanned!r}")
        return True

    def resync_from_scan(self) -> None:
        """Rebuild the running totals and per-host contributions.

        The recovery half of :meth:`verify_against_scan`: strict-invariant
        ``resync`` mode calls this after a detected drift, replacing the
        delta-maintained state with a fresh full scan so subsequent
        samples integrate correct values.
        """
        self._online = 0
        self._working = 0
        self._reserved = 0.0
        for h in self._hosts:
            c = self._contribution(h)
            self._contrib[h.host_id] = c
            self._online += c[0]
            self._working += c[1]
            self._reserved += c[2]

    def refresh_hosts(self, now: float, hosts: Sequence[Host]) -> None:
        """Fold a whole dirty sweep's power + node-state deltas at once.

        For each host in iteration order: record its power draw if it
        changed, then its node-state transition (:meth:`host_changed`).
        The engine hands the *sorted* dirty hosts here, so the
        ``_total_watts`` float accumulation (order-dependent) and the
        per-change ``datacenter_power`` step updates happen in one fixed
        sequence, keeping energy integrals — and the recorded power
        series under ``record_power_series`` — deterministic.
        """
        last_watts = self._last_watts
        host_energy = self.host_energy
        dc_power = self.datacenter_power
        for host in hosts:
            hid = host.host_id
            watts = host.power_watts()
            prev = last_watts[hid]
            if watts != prev:
                host_energy[hid].set_power(now, watts)
                last_watts[hid] = watts
                self._total_watts += watts - prev
                dc_power.set_power(now, self._total_watts)
            self.host_changed(host)

    def close(self, now: float) -> None:
        """Close every integral at the simulation horizon."""
        self.working_nodes.finish(now)
        self.online_nodes.finish(now)
        self.reserved_cpu_pct.finish(now)
        for acc in self.host_energy.values():
            acc.close(now)
        self.datacenter_power.close(now)

    # -------------------------------------------------------------- results

    @property
    def avg_working(self) -> float:
        """Time-averaged working-node count (the tables' ``Work``)."""
        return self.working_nodes.mean

    @property
    def avg_online(self) -> float:
        """Time-averaged online-node count (the tables' ``ON``)."""
        return self.online_nodes.mean

    @property
    def cpu_hours(self) -> float:
        """Reserved-CPU integral in core-hours (the tables' ``CPU (h)``)."""
        return self.reserved_cpu_pct.integral / CPU_PCT_PER_CORE / HOUR

    @property
    def energy_kwh(self) -> float:
        """Total datacenter energy (the tables' ``Pwr``)."""
        return sum(acc.energy_kwh for acc in self.host_energy.values())

    @property
    def migrations(self) -> int:
        """Completed migrations (the tables' ``Mig``)."""
        return self.counters["migrations"]
