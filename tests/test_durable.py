"""Byte-level fuzzing of the durable files in :mod:`repro.durable`.

Three writers share one reader and one tail repair: the service
:class:`~repro.service.journal.DecisionJournal`, the experiment
:class:`~repro.experiments.resilience.SweepJournal` and
``EventTrace.write_jsonl``.  For each of them:

* a file cut at any byte offset recovers to its valid prefix, and once
  deterministic re-execution appends the lost records again it is
  byte-identical to the uncut file;
* a byte flipped before the last line either raises ``StateError``
  naming its line, or reads back the same number of records.  The
  second case is a flip that leaves a valid record, possibly with a
  different value: records carry no checksum, so that goes undetected
  (the gap a seq + crc32 framing would close).  No flip before the last
  line is ever skipped as a torn tail.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.durable import atomic_write, read_records, recover_tail
from repro.engine.tracing import (
    EventTrace,
    TraceEventKind,
    TraceRecord,
    read_jsonl,
    record_from_dict,
    record_to_dict,
)
from repro.errors import StateError
from repro.experiments.resilience import SweepJournal
from repro.service.journal import UNINDEXED_KINDS, DecisionJournal

# ------------------------------------------------------------ the formats


def _decision_write(path, records):
    with DecisionJournal(path) as journal:
        for i, record in enumerate(records):
            journal.append_indexed(i, record)


def _decision_resume(path, records):
    with DecisionJournal(path, recover=True) as journal:
        for i, record in enumerate(records):
            journal.append_indexed(i, record)


def _decision_read(path):
    with DecisionJournal(path, recover=True) as journal:
        return journal.preexisting


def _sweep_write(path, entries):
    with SweepJournal(path) as journal:
        for entry in entries:
            journal.record(**entry)


def _sweep_resume(path, entries):
    done = len(recover_tail(path, dict))
    _sweep_write(path, entries[done:])


def _trace_write(path, records):
    trace = EventTrace(capacity=None)
    for r in records:
        trace.emit(r.time, r.kind, r.vm_id, r.host_id, r.detail)
    trace.write_jsonl(path)


def _trace_resume(path, records):
    done = len(recover_tail(path, record_from_dict))
    with open(path, "a", encoding="utf-8") as fh:
        for r in records[done:]:
            fh.write(json.dumps(record_to_dict(r)) + "\n")


#: name -> (write, resume after a crash, read back)
FORMATS = {
    "decision": (_decision_write, _decision_resume, _decision_read),
    "sweep": (_sweep_write, _sweep_resume, SweepJournal.read_entries),
    "trace": (_trace_write, _trace_resume, read_jsonl),
}

_small_text = st.text(max_size=12)
_ids = st.none() | st.integers(min_value=0, max_value=10**6)
_records = st.builds(
    TraceRecord,
    time=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    kind=st.sampled_from(
        [k for k in TraceEventKind if k not in UNINDEXED_KINDS]
    ),
    vm_id=_ids,
    host_id=_ids,
    detail=_small_text,
)
_entries = st.fixed_dictionaries({
    "task_id": _small_text,
    "attempt": st.integers(min_value=0, max_value=9),
    "outcome": st.sampled_from(["ok", "cached", "error", "timeout", "crash"]),
    "duration_s": st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    "cache_key": _small_text,
    "error": _small_text,
})


def _items(fmt, min_size):
    base = _entries if fmt == "sweep" else _records
    return st.lists(base, min_size=min_size, max_size=5)


def _sample(fmt):
    if fmt == "sweep":
        return [
            {"task_id": f"t{i}", "attempt": i, "outcome": "ok",
             "duration_s": 0.5 * i, "cache_key": f"k{i}", "error": ""}
            for i in range(3)
        ]
    return [
        TraceRecord(1.5 * i, TraceEventKind.SVC_ADMIT, vm_id=i, detail="x\ny")
        for i in range(3)
    ]


_fuzz = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _cut_recover_resume(fmt, directory, items, offset):
    """Write ``items``, cut the file after ``offset`` bytes, resume."""
    write, resume, _ = FORMATS[fmt]
    path = os.path.join(directory, f"{fmt}-{offset}.jsonl")
    write(path, items)
    with open(path, "rb") as fh:
        uncut = fh.read()
    with open(path, "wb") as fh:
        fh.write(uncut[:offset])
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message=".*torn write", category=RuntimeWarning
        )
        resume(path, items)
    with open(path, "rb") as fh:
        assert fh.read() == uncut, f"cut at byte {offset}"


# ------------------------------------------------------------- truncation


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_cut_at_every_offset_recovers_byte_identically(fmt, tmp_path):
    items = _sample(fmt)
    probe = str(tmp_path / "probe.jsonl")
    FORMATS[fmt][0](probe, items)
    for offset in range(os.path.getsize(probe) + 1):
        _cut_recover_resume(fmt, str(tmp_path), items, offset)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_cut_anywhere_recovers_byte_identically_fuzzed(fmt):
    @_fuzz
    @given(items=_items(fmt, 1), data=st.data())
    def check(items, data):
        with tempfile.TemporaryDirectory() as directory:
            probe = os.path.join(directory, "probe.jsonl")
            FORMATS[fmt][0](probe, items)
            offset = data.draw(
                st.integers(min_value=0, max_value=os.path.getsize(probe)),
                label="offset",
            )
            _cut_recover_resume(fmt, directory, items, offset)

    check()


# -------------------------------------------------------------- bit flips


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_flip_before_the_last_line_fails_loudly_or_keeps_the_count(fmt):
    @_fuzz
    @given(items=_items(fmt, 2), data=st.data())
    def check(items, data):
        write, _, read = FORMATS[fmt]
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "j.jsonl")
            write(path, items)
            with open(path, "rb") as fh:
                clean = fh.read()
            last_start = clean.rstrip(b"\n").rfind(b"\n") + 1
            pos = data.draw(
                st.integers(min_value=0, max_value=last_start - 1), label="pos"
            )
            new = data.draw(
                st.integers(min_value=0, max_value=255).filter(
                    lambda b: b != clean[pos]
                ),
                label="byte",
            )
            flipped = clean[:pos] + bytes([new]) + clean[pos + 1:]
            with open(path, "wb") as fh:
                fh.write(flipped)
            line = clean.count(b"\n", 0, pos) + 1
            # A flip to a newline splits its line; the damage may then
            # start on the next one.
            lines = {line, line + 1} if new == ord("\n") else {line}
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # never a "torn tail"
                try:
                    got = read(path)
                except StateError as exc:
                    named = re.search(r"j\.jsonl:(\d+): ", str(exc))
                    assert named and int(named.group(1)) in lines, str(exc)
                else:
                    assert len(got) == len(items)
            with open(path, "rb") as fh:
                assert fh.read() == flipped  # reading repairs nothing here

    check()


# ------------------------------------------------------------ reader rules


def _lines(*records):
    return b"".join(
        json.dumps(record_to_dict(r)).encode() + b"\n" for r in records
    )


class TestReadRecords:
    def test_end_is_past_the_last_valid_record(self, tmp_path):
        path = tmp_path / "t.jsonl"
        body = _lines(TraceRecord(1.0, TraceEventKind.PLACEMENT))
        path.write_bytes(body + b"\n  \n" + b'{"time": 2')
        with pytest.warns(RuntimeWarning, match=r"t\.jsonl:4: skipping"):
            records, end = read_records(path, record_from_dict)
        assert len(records) == 1 and end == len(body)

    @pytest.mark.parametrize("last", [
        b'{"time": 2.0, "kind": "no_such_kind"}',
        b'[1, 2]',
        _lines(TraceRecord(2.0, TraceEventKind.PLACEMENT)).rstrip(b"\n") * 2,
        _lines(TraceRecord(2.0, TraceEventKind.PLACEMENT)).replace(b"\n", b"\x80")
        + _lines(TraceRecord(3.0, TraceEventKind.PLACEMENT)).rstrip(b"\n"),
    ])
    def test_a_whole_json_last_line_is_not_a_torn_tail(self, tmp_path, last):
        path = tmp_path / "t.jsonl"
        body = _lines(TraceRecord(1.0, TraceEventKind.PLACEMENT))
        path.write_bytes(body + last + b"\n")
        with pytest.raises(StateError, match=r"t\.jsonl:2: corrupt last line \(not a torn"):
            recover_tail(path, record_from_dict)
        assert path.read_bytes() == body + last + b"\n"

    def test_recover_tail_leaves_a_clean_file_alone(self, tmp_path):
        path = tmp_path / "t.jsonl"
        body = _lines(TraceRecord(1.0, TraceEventKind.PLACEMENT))
        path.write_bytes(body)
        before = os.stat(path).st_mtime_ns
        assert len(recover_tail(path, record_from_dict)) == 1
        assert path.read_bytes() == body
        assert os.stat(path).st_mtime_ns == before


class TestAtomicWrite:
    def test_chunks_are_concatenated(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"old")
        atomic_write(path, b"head", b"\n", b"payload")
        assert path.read_bytes() == b"head\npayload"
        assert os.listdir(tmp_path) == ["f.bin"]

    def test_failure_keeps_the_old_file_and_no_temp(self, tmp_path, monkeypatch):
        import repro.durable as durable_mod

        path = tmp_path / "f.bin"
        path.write_bytes(b"old")

        def crash(src, dst):
            raise OSError("crash before rename")

        monkeypatch.setattr(durable_mod.os, "replace", crash)
        with pytest.raises(OSError, match="crash before rename"):
            atomic_write(path, b"new")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["f.bin"]
