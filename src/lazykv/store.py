"""Versioned in-memory key-value storage underlying every protocol.

Each record carries a version that strictly increases across puts to the
same key and is never reused; the version is the unit of optimistic
validation.  get/put/next_version are individually atomic (one mutex);
cross-key atomicity is the concurrency-control layers' responsibility.

Values and versions live in two maps, and the version map holds only
versions above 1: most records in a TPC-C-like store (the order rows) are
written once, and this saves them a (value, version) pair each.

Deletes are out of scope.  Reads of absent keys raise NotFound, which aborts
the enclosing transaction; writes to absent keys are inserts (first version
is 1).

The whole store can be written to and reloaded from a snapshot file:
concatenated length-prefixed binary records, little-endian,

    [u32 key_len][key utf-8][u8 tag][payload][u64 version]

with tag 0 = int (payload i64), 1 = str (payload u32 len + utf-8 bytes),
2 = bool (payload u8).  An empty file is an empty store.

Saving streams: it sorts each store's keys (one reference per record),
merges the key streams and packs the records into one buffer that is
flushed every _FLUSH_BYTES, so its extra memory grows with the number of
keys, not with the file.  Restoring reads the file through a buffer of
_READ_BYTES and puts each record straight into its store's maps, so its
extra memory is one buffer, not the file.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import struct
import threading
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .futexpr import Value, value_kind


class NotFound(KeyError):
    """Key absent; aborts the reading transaction."""


class VersionRegression(RuntimeError):
    """put() with a non-successor version; internal invariant violation."""


class SnapshotError(ValueError):
    """Snapshot bytes do not parse as records."""


_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_U64 = struct.Struct("<Q")
# what follows the key of an int or bool record, and the head of a str one
_INT_TAIL = struct.Struct("<BqQ")
_BOOL_TAIL = struct.Struct("<BBQ")
_STR_HEAD = struct.Struct("<BI")
_FLUSH_BYTES = 1 << 16
_READ_BYTES = 1 << 16


class Store:
    def __init__(self):
        self._mutex = threading.Lock()
        self._values: Dict[str, Value] = {}
        self._versions: Dict[str, int] = {}  # absent = version 1

    def get(self, key: str) -> Tuple[Value, int]:
        with self._mutex:
            try:
                value = self._values[key]
            except KeyError:
                raise NotFound(key) from None
            return value, self._versions.get(key, 1)

    def _version(self, key: str) -> int:
        """Current version, 0 when absent; the caller holds the mutex."""
        if key not in self._values:
            return 0
        return self._versions.get(key, 1)

    def _install(self, key: str, value: Value, version: int) -> None:
        """Store one record; the caller holds the mutex."""
        self._values[key] = value
        if version > 1:
            self._versions[key] = version
        else:
            self._versions.pop(key, None)

    def put(self, key: str, value: Value, version: int) -> None:
        value_kind(value)  # reject unsupported types before they land
        with self._mutex:
            expect = self._version(key) + 1
            if version != expect:
                raise VersionRegression(
                    "put(%r) at version %d, expected %d" % (key, version, expect)
                )
            self._install(key, value, version)

    def put_all(self, writes: Dict[str, Value]) -> None:
        """Install each write at its key's next version, in key order."""
        for key in sorted(writes):
            self.put(key, writes[key], self.next_version(key))

    def next_version(self, key: str) -> int:
        with self._mutex:
            return self._version(key) + 1

    def version(self, key: str) -> int:
        """Current version, 0 when absent.  Validation helper; get() is the
        client-facing read and keeps its NotFound contract."""
        with self._mutex:
            return self._version(key)

    def contains(self, key: str) -> bool:
        with self._mutex:
            return key in self._values

    def items(self) -> List[Tuple[str, Value, int]]:
        """Stable key-sorted copy, for oracles and tests."""
        with self._mutex:
            versions = self._versions
            return [(k, v, versions.get(k, 1))
                    for k, v in sorted(self._values.items())]

    def values_dict(self) -> Dict[str, Value]:
        out: Dict[str, Value] = {}
        self.values_into(out)
        return out

    def values_into(self, out: Dict[str, Value]) -> None:
        """Add every key's current value to out under the mutex, with no
        intermediate copy of this store's map."""
        with self._mutex:
            out.update(self._values)

    def restore_record(self, key: str, value: Value, version: int) -> None:
        """Install a record at an explicit version, bypassing the successor
        check.  Snapshot restore only; never valid mid-run."""
        value_kind(value)
        if version < 1:
            raise SnapshotError("record for %r has version %d" % (key, version))
        with self._mutex:
            self._install(key, value, version)

    # -- snapshot ----------------------------------------------------------

    def save_snapshot(self, path: str) -> None:
        write_snapshot(path, [self])

    @classmethod
    def load_snapshot(cls, path: str,
                      into: Optional[Callable[[str], "Store"]] = None
                      ) -> Optional["Store"]:
        """Parse a snapshot file, reading it _READ_BYTES at a time.

        Without `into` every record goes into a fresh store, which is
        returned.  With it, each record is installed straight into the
        store that into(key) names (a partitioned deployment's placement)
        and None is returned.  Each destination's mutex is taken when its
        first record arrives and held until the end.  Like restore_record,
        installing bypasses the successor check, so it is valid only before
        the stores serve transactions.

        The bytes held are the unparsed tail of one read plus the next
        read: a record that runs past them is parsed again from its first
        byte once more bytes are in, and a record longer than the buffer
        makes the next read as long as what it already holds.  Raises
        SnapshotError, naming the bad record's file offset, on a record
        the end of the file cuts short, an unknown value tag, a version
        below 1, or bytes that are not UTF-8; the records before the bad
        one stay installed."""
        fresh = None
        if into is None:
            fresh = cls()
            into = lambda _key: fresh
        u32, i64, u64 = _U32.unpack_from, _I64.unpack_from, _U64.unpack_from
        held: Dict["Store", Tuple[Dict[str, Value], Dict[str, int]]] = {}
        data = b""
        base = start = 0  # file offset of data[0]; first unparsed byte
        try:
            with open(path, "rb") as f:
                while True:
                    more = f.read(max(_READ_BYTES, len(data) - start))
                    if not more:
                        break
                    data = data[start:] + more
                    base += start
                    n = len(data)
                    pos = 0
                    try:
                        while pos < n:
                            start = pos
                            (klen,) = u32(data, pos)
                            pos += 4
                            if pos + klen > n:
                                break
                            key = data[pos:pos + klen].decode("utf-8")
                            pos += klen
                            tag = data[pos]
                            pos += 1
                            if tag == 0:
                                (value,) = i64(data, pos)
                                pos += 8
                            elif tag == 1:
                                (vlen,) = u32(data, pos)
                                pos += 4
                                if pos + vlen > n:
                                    break
                                value = data[pos:pos + vlen].decode("utf-8")
                                pos += vlen
                            elif tag == 2:
                                value = data[pos] != 0
                                pos += 1
                            else:
                                raise SnapshotError(
                                    "unknown value tag %d at byte %d"
                                    % (tag, base + start))
                            (version,) = u64(data, pos)
                            pos += 8
                            if version < 1:
                                raise SnapshotError(
                                    "record for %r has version %d"
                                    % (key, version))
                            dest = into(key)
                            maps = held.get(dest)
                            if maps is None:
                                dest._mutex.acquire()
                                maps = held[dest] = (dest._values,
                                                     dest._versions)
                            values, versions = maps
                            values[key] = value
                            if version > 1:
                                versions[key] = version
                            elif key in versions:
                                del versions[key]
                        else:
                            start = n
                    except (struct.error, IndexError):
                        pass  # the record at start needs more bytes
            if start < len(data):
                raise SnapshotError("truncated snapshot at byte %d"
                                    % (base + start))
        except UnicodeDecodeError:
            raise SnapshotError("record at byte %d is not UTF-8"
                                % (base + start)) from None
        finally:
            for dest in held:
                dest._mutex.release()
        return fresh


def _stream(st: Store) -> Iterator[Tuple[str, Value, int]]:
    """st's records in key order; the caller holds st's mutex.  (A
    function, so that each store's generator binds its own store.)"""
    values, versions = st._values, st._versions
    return ((k, values[k], versions.get(k, 1)) for k in sorted(values))


def write_snapshot(path: str, stores: List[Store]) -> None:
    """Write the records of stores holding disjoint keys (a partitioned
    deployment's) as one key-sorted snapshot, as if they were one store.

    Every store's mutex is held while the file is written, so no record
    changes under the writer; transactions touching the stores wait.  The
    records go to a temporary file next to path, which replaces path only
    once it is complete."""
    tmp = path + ".tmp"
    buf = bytearray()
    try:
        with contextlib.ExitStack() as mutexes, open(tmp, "wb") as f:
            for st in stores:
                mutexes.enter_context(st._mutex)
            for key, value, version in heapq.merge(*map(_stream, stores)):
                kb = key.encode("utf-8")
                buf += _U32.pack(len(kb))
                buf += kb
                if isinstance(value, bool):
                    buf += _BOOL_TAIL.pack(2, value, version)
                elif isinstance(value, int):
                    buf += _INT_TAIL.pack(0, value, version)
                elif isinstance(value, str):
                    vb = value.encode("utf-8")
                    buf += _STR_HEAD.pack(1, len(vb))
                    buf += vb
                    buf += _U64.pack(version)
                else:
                    value_kind(value)  # raises TypeMismatch
                if len(buf) >= _FLUSH_BYTES:
                    f.write(buf)
                    del buf[:]
            f.write(buf)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
