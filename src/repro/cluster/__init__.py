"""Cluster substrate: physical hosts, VMs, CPU sharing, power and failures.

This package models the virtualized datacenter the paper simulates:

* :mod:`repro.cluster.spec` — immutable host/cluster descriptions,
  including the paper's three node classes (fast/medium/slow creation and
  migration overheads);
* :mod:`repro.cluster.vm` — virtual machines encapsulating HPC jobs;
* :mod:`repro.cluster.host` — runtime host state machine (off / booting /
  on / failed), residency and operation tracking;
* :mod:`repro.cluster.xen` — the Xen-credit-scheduler-like CPU share
  solver (weight-proportional water-filling with caps);
* :mod:`repro.cluster.power` — power models, including the paper's
  Table I measurement-derived model (230 W idle, 304 W at 400% CPU);
* :mod:`repro.cluster.energy` — exact event-driven energy integration;
* :mod:`repro.cluster.failures` — per-host availability processes driven
  by the paper's reliability factor F_rel;
* :mod:`repro.cluster.faults` — operation-level fault injection (creation
  failures, migration aborts, boot failures) and observed-reliability
  tracking;
* :mod:`repro.cluster.checkpoint` — checkpoint store used for recovery.
"""

from repro.cluster.spec import HostSpec, NodeClass, ClusterSpec, FAST, MEDIUM, SLOW
from repro.cluster.vm import Vm, VmState
from repro.cluster.host import Host, HostState, Operation, OperationKind
from repro.cluster.xen import compute_shares
from repro.cluster.power import (
    PowerModel,
    TablePowerModel,
    LinearPowerModel,
    ConstantPowerModel,
    PAPER_TABLE_I,
)
from repro.cluster.dvfs import DvfsOperatingPoint, DvfsPowerModel, PAPER_CALIBRATED_DVFS
from repro.cluster.energy import EnergyAccount
from repro.cluster.failures import FailureProcess
from repro.cluster.faults import FaultConfig, OperationFaultModel, ObservedReliability
from repro.cluster.checkpoint import CheckpointStore, Checkpoint

__all__ = [
    "HostSpec",
    "NodeClass",
    "ClusterSpec",
    "FAST",
    "MEDIUM",
    "SLOW",
    "Vm",
    "VmState",
    "Host",
    "HostState",
    "Operation",
    "OperationKind",
    "compute_shares",
    "PowerModel",
    "TablePowerModel",
    "LinearPowerModel",
    "ConstantPowerModel",
    "PAPER_TABLE_I",
    "DvfsOperatingPoint",
    "DvfsPowerModel",
    "PAPER_CALIBRATED_DVFS",
    "EnergyAccount",
    "FailureProcess",
    "FaultConfig",
    "OperationFaultModel",
    "ObservedReliability",
    "CheckpointStore",
    "Checkpoint",
]
