"""Durable files: how every persisted artifact survives a crash.

Append-only JSONL logs (the service decision journal, the sweep journal,
event traces) hold one JSON object per line.  A process killed
mid-``write`` leaves a *torn tail*: a strict prefix of one record on the
last non-empty line, which is skipped with a ``RuntimeWarning``.  Any
other bad line raises :class:`~repro.errors.StateError` naming
``path:line`` -- a bad line before the last one, or a last line that is a
whole JSON value (a strict prefix of an object never is) -- because a log
re-executed without that record would lose it and duplicate a later one.

Records carry no checksum: a flipped byte that leaves a valid record (a
digit of a time, say) goes undetected.  Framing each record with a
sequence number and a crc32 would close that gap; it is a format change.

Whole files (engine snapshots, result-cache entries) go through
:func:`atomic_write`, so a reader sees the old file or the new one.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from typing import Callable, List, Tuple, TypeVar

from repro.errors import StateError

__all__ = ["atomic_write", "read_records", "recover_tail"]

T = TypeVar("T")

#: Raised for a non-record by decoding (``JSONDecodeError`` and
#: ``UnicodeDecodeError`` are ``ValueError``\ s) or by a ``parse`` callback.
_PARSE_ERRORS = (ValueError, KeyError, TypeError)


def _whole_json_value(raw: bytes) -> bool:
    """Whether ``raw`` starts with a complete JSON value (bad UTF-8 after
    it, as when a flipped newline fuses two records, does not hide it)."""
    try:
        json.JSONDecoder().raw_decode(raw.decode("utf-8", "replace"))
    except ValueError:
        return False
    return True


def _scan(
    data: bytes, path: os.PathLike, parse: Callable[[dict], T]
) -> Tuple[List[T], int]:
    lines = data.split(b"\n")
    last = max((i for i, raw in enumerate(lines) if raw.strip()), default=-1)
    records: List[T] = []
    end = offset = 0
    for i, raw in enumerate(lines):
        offset += len(raw) + 1
        raw = raw.strip()
        if not raw:
            continue
        try:
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise TypeError("not a JSON object")
            records.append(parse(payload))
        except _PARSE_ERRORS:
            where = f"{os.fspath(path)}:{i + 1}"
            if i != last or _whole_json_value(raw):
                line = "record before the last line" if i != last else "last line"
                raise StateError(
                    f"{where}: corrupt {line} (not a torn tail); refusing to drop it"
                ) from None
            warnings.warn(
                f"{where}: skipping corrupt last line (torn write?)",
                RuntimeWarning,
                stacklevel=4,
            )
        else:
            end = min(offset, len(data))
    return records, end


def read_records(
    path: os.PathLike, parse: Callable[[dict], T]
) -> Tuple[List[T], int]:
    """Parse a JSONL log under the torn-tail rule: ``(records, end)``.

    ``parse`` turns one line's JSON object into a record, raising
    ``ValueError``, ``KeyError`` or ``TypeError`` when it is not one.
    ``end`` is the byte offset just past the last valid record and its
    newline, if any; only blank lines and a torn tail follow it.
    """
    with open(path, "rb") as fh:
        return _scan(fh.read(), path, parse)


def recover_tail(path: os.PathLike, parse: Callable[[dict], T]) -> List[T]:
    """Make a JSONL log end at a record boundary; returns its records.

    An append behind a torn tail would fuse with it into a corrupt line
    that is no longer the last.  So the file is truncated to ``end`` (see
    :func:`read_records`), or a last record that lost its newline gets
    one, then fsynced.  Nothing is rewritten, so a crash here leaves a
    file that recovers the same way.  Raises before changing anything.
    """
    with open(path, "rb+", buffering=0) as fh:
        data = fh.read()
        records, end = _scan(data, path, parse)
        if end < len(data):
            os.ftruncate(fh.fileno(), end)
        elif data and not data.endswith(b"\n"):
            fh.write(b"\n")
        else:
            return records
        os.fsync(fh.fileno())
    return records


def atomic_write(path: os.PathLike, *chunks: bytes) -> None:
    """Replace ``path`` with ``chunks``: temp file, fsync, ``os.replace``,
    directory fsync.  A large payload passed as its own chunk is never
    copied into a joined buffer.  On any exception the temp file is
    removed and ``path`` is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform without directory fsync
        pass
