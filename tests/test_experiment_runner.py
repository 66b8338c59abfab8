"""Tests for the parallel experiment sweep runner.

The load-bearing property is determinism: a parallel sweep must produce
the same rows as a serial one (workers get the same explicit arguments
the serial path uses — modulo measured wall-clock fields, which differ
between any two runs).  The cache must serve identical invocations
byte-faithfully and invalidate on any key component change.
"""

import warnings

import pytest

from repro.errors import ConfigurationError
from repro.experiments import registry
from repro.experiments.common import ExperimentOutput
from repro.experiments.runner import (
    _cache_load,
    cache_key,
    comparable_rows,
    run_experiments,
)

#: Cheap but representative: table1 is the power model (no simulation),
#: table5 runs three reduced-horizon simulations.
IDS = ["table1", "table5"]
SCALE = 1.0 / 28.0
SEED = 11


@pytest.fixture(scope="module")
def serial_outputs():
    return run_experiments(IDS, scale=SCALE, seed=SEED)


class TestDeterminism:
    def test_parallel_rows_equal_serial(self, serial_outputs):
        parallel = run_experiments(
            IDS, scale=SCALE, seed=SEED, parallel=True, jobs=2
        )
        assert [o.exp_id for o in parallel] == IDS
        assert [comparable_rows(o) for o in parallel] == [
            comparable_rows(o) for o in serial_outputs
        ]

    def test_serial_reruns_are_identical(self, serial_outputs):
        again = run_experiments(IDS, scale=SCALE, seed=SEED)
        assert [comparable_rows(o) for o in again] == [
            comparable_rows(o) for o in serial_outputs
        ]

    def test_output_order_matches_input_order(self):
        outs = run_experiments(
            list(reversed(IDS)), scale=SCALE, seed=SEED, parallel=True, jobs=2
        )
        assert [o.exp_id for o in outs] == list(reversed(IDS))


class TestCache:
    def test_cache_hit_serves_identical_rows(self, tmp_path, serial_outputs):
        cache = str(tmp_path / "c")
        first = run_experiments(IDS, scale=SCALE, seed=SEED, cache_dir=cache)
        second = run_experiments(IDS, scale=SCALE, seed=SEED, cache_dir=cache)
        assert [o.rows for o in second] == [o.rows for o in first]
        # The hit pass is pickle-served: even wall-clock fields round-trip.
        assert [o.text for o in second] == [o.text for o in first]
        assert [comparable_rows(o) for o in first] == [
            comparable_rows(o) for o in serial_outputs
        ]

    # Each junk entry fails the digest check before it is unpickled;
    # unpickled, they would raise three different exception types
    # (UnpicklingError, ValueError from `g` as a GET opcode, EOFError).
    @pytest.mark.parametrize("junk", [b"not a pickle", b"garbage\n", b""])
    def test_corrupt_cache_entry_recomputes(self, tmp_path, junk):
        cache = tmp_path / "c"
        run_experiments(["table1"], scale=SCALE, seed=SEED, cache_dir=str(cache))
        (entry,) = list(cache.glob("*.pkl"))
        entry.write_bytes(junk)
        with pytest.warns(RuntimeWarning, match=entry.name):
            outs = run_experiments(
                ["table1"], scale=SCALE, seed=SEED, cache_dir=str(cache)
            )
        assert isinstance(outs[0], ExperimentOutput)
        # The recomputed result overwrites the torn entry with one that
        # loads cleanly.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _cache_load(entry).exp_id == "table1"

    def test_cache_key_separates_all_components(self):
        base = cache_key("table1", 0.1, 7)
        assert cache_key("table2", 0.1, 7) != base
        assert cache_key("table1", 0.2, 7) != base
        assert cache_key("table1", 0.1, 8) != base
        assert cache_key("table1", 0.1, None) != base
        assert cache_key("table1", 0.1, 7) == base


class TestValidation:
    def test_unknown_id_raises_before_running(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_experiments(["no_such_experiment"], scale=SCALE)

    def test_registry_all_experiments_delegates(self):
        # Smoke-check the wiring: registry.all_experiments accepts the
        # runner keywords and still returns one output per registry entry.
        assert registry.all_experiments.__kwdefaults__ is not None
        assert "parallel" in registry.all_experiments.__kwdefaults__
