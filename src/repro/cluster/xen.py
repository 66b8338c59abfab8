"""Xen-credit-scheduler-like CPU share computation.

The paper models "the behavior of the Xen HyperScheduler ... including
characteristics like Virtual Machine Weights and Capabilities [caps]".
Xen's credit scheduler is, at steady state, a weighted max-min fair
processor-sharing discipline: each runnable domain receives CPU in
proportion to its *weight*, but never more than its *cap*.

:func:`compute_shares` implements exactly that as progressive (water-)
filling: distribute the host capacity proportionally to the weights of
unsaturated domains, freeze those that hit their cap, and redistribute the
surplus until nothing changes.  The loop runs at most ``n`` rounds (each
round saturates at least one domain), and each round is vectorized.

Shares are recomputed only when a host's domain set or demand changes —
between events, shares are constant, so job progress integrates in closed
form (see DESIGN.md §7).  The engine re-solves every dirty host once per
event through :meth:`repro.cluster.host.Host.recompute_shares`: a memo
lookup, and on a miss one call of :func:`compute_shares`.

:class:`ShareMemo` caches solved share vectors keyed by the exact
``(capacity, caps, weights)`` fingerprint.  A hit returns the very floats
a fresh solve would produce (the solver is deterministic in its inputs),
so memoization can never change results — only skip work.  The key is the
*ordered* tuple, not a multiset: water-filling is mathematically
permutation-equivariant but its floating-point sums are not, and reusing
a permuted host's solution would break bit-identity.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "compute_shares",
    "ShareMemo",
]

#: Water-filling convergence tolerance (absolute, percent units).
_TOL = 1e-12
#: Epsilon weight granted to zero-weight runnable domains.
_EPS_WEIGHT = 1e-9


def compute_shares(
    capacity: float,
    caps: Sequence[float],
    weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Weighted max-min fair allocation of ``capacity`` among domains.

    Parameters
    ----------
    capacity:
        Host CPU capacity in percent units (400.0 for a 4-way node).
    caps:
        Per-domain demand ceilings (Xen caps), same units.
    weights:
        Per-domain weights; defaults to the caps themselves, which matches
        Xen's common proportional configuration (weight ∝ allotted vCPUs).

    Returns
    -------
    numpy.ndarray
        Allocated share per domain; ``sum(shares) <= capacity`` and
        ``0 <= shares[i] <= caps[i]`` always hold.

    Examples
    --------
    Uncontended hosts give everyone their cap:

    >>> compute_shares(400.0, [100.0, 200.0]).tolist()
    [100.0, 200.0]

    Contention splits proportionally to weights (= caps by default):

    >>> compute_shares(300.0, [100.0, 300.0]).tolist()
    [75.0, 225.0]

    A saturated domain's surplus is redistributed (water-filling) — here
    with equal weights, the small domain caps at 50 and the rest flows on:

    >>> compute_shares(300.0, [50.0, 300.0], weights=[1.0, 1.0]).tolist()
    [50.0, 250.0]
    """
    if not math.isfinite(capacity):
        raise ConfigurationError(f"capacity must be finite, got {capacity}")
    if capacity < 0:
        raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
    caps_arr = np.asarray(caps, dtype=float)
    if caps_arr.size == 0:
        return np.zeros(0)
    # ``not all(x >= 0)`` (rather than ``any(x < 0)``) also rejects NaN,
    # which compares False both ways and would otherwise flow through the
    # solver silently.
    if not np.all(caps_arr >= 0) or not np.all(np.isfinite(caps_arr)):
        raise ConfigurationError("caps must be finite and non-negative")
    if weights is None:
        w = caps_arr.copy()
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != caps_arr.shape:
            raise ConfigurationError("weights must match caps in length")
        if not np.all(w >= 0) or not np.all(np.isfinite(w)):
            raise ConfigurationError("weights must be finite and non-negative")
    # Zero-weight runnable domains still deserve their cap when idle
    # capacity remains; give them a tiny epsilon weight.
    w = np.where((w <= 0) & (caps_arr > 0), _EPS_WEIGHT, w)

    with np.errstate(over="ignore"):
        total_demand = float(caps_arr.sum())
    if total_demand <= capacity:
        return caps_arr.copy()

    shares = np.zeros_like(caps_arr)
    active = caps_arr > 0
    remaining = float(capacity)
    # Each round saturates >= 1 domain, so at most n rounds.
    for _ in range(caps_arr.size):
        if remaining <= _TOL or not active.any():
            break
        w_active = w[active]
        with np.errstate(over="ignore"):
            w_sum = float(w_active.sum())
        if not math.isfinite(w_sum):
            # Finite weights whose *sum* overflows (e.g. two ~1e308
            # domains): normalize by the max so proposals stay finite.
            # Never fires for sane inputs — the committed baselines see
            # the exact historical arithmetic.
            w_active = w_active / float(w_active.max())
            w_sum = float(w_active.sum())
        with np.errstate(over="ignore"):
            proposal = remaining * w_active / w_sum
        room = caps_arr[active] - shares[active]
        grant = np.minimum(proposal, room)
        shares[active] += grant
        remaining -= float(grant.sum())
        newly_full = np.zeros_like(active)
        newly_full[active] = (caps_arr[active] - shares[active]) <= _TOL
        if not newly_full.any():
            break  # everyone got their full proposal; fixed point
        active &= ~newly_full
    return shares


class ShareMemo:
    """FIFO-bounded cache of solved share vectors.

    Keys are the exact ``(capacity, caps, weights)`` tuples of a host's
    share problem; values are the solved shares as a tuple of floats.  The
    solver is a pure function of the key, so a hit returns byte-for-byte
    what a fresh solve would — eviction policy and cache size can change
    only speed, never results.  The memo pickles with the engine, so a
    resumed run starts with the same cache contents (again
    results-neutral, but it keeps resumed throughput flat).
    """

    __slots__ = ("max_entries", "_table", "hits", "misses")

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries < 1:
            raise ConfigurationError("ShareMemo needs max_entries >= 1")
        self.max_entries = int(max_entries)
        self._table: Dict[tuple, Tuple[float, ...]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._table)

    def __getstate__(self) -> dict:
        return {
            "max_entries": self.max_entries,
            "_table": self._table,
            "hits": self.hits,
            "misses": self.misses,
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def get(self, key: tuple) -> Optional[Tuple[float, ...]]:
        hit = self._table.get(key)
        if hit is not None:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def put(self, key: tuple, shares: Tuple[float, ...]) -> None:
        table = self._table
        if key not in table and len(table) >= self.max_entries:
            # FIFO eviction: drop the oldest insertion.  Results-neutral
            # (see class docstring), O(1), and deterministic.
            del table[next(iter(table))]
        table[key] = shares
