"""Versioned store behavior and the snapshot file format."""

import os
import struct
import sys
import tracemalloc

import pytest

from lazykv import (Cluster, DirectoryPartitionMap, HashPartitionMap,
                    NotFound, SnapshotError, Store, VersionRegression)
from lazykv.futexpr import TypeMismatch
from lazykv.store import _READ_BYTES


class TestVersioning:
    def test_get_put_round_trip(self):
        st = Store()
        st.put("a", 5, 1)
        assert st.get("a") == (5, 1)
        st.put("a", 6, 2)
        assert st.get("a") == (6, 2)

    def test_missing_key(self):
        st = Store()
        with pytest.raises(NotFound):
            st.get("nope")
        assert st.version("nope") == 0
        assert not st.contains("nope")

    def test_next_version(self):
        st = Store()
        assert st.next_version("a") == 1
        st.put("a", 0, 1)
        assert st.next_version("a") == 2

    def test_version_must_be_successor(self):
        st = Store()
        st.put("a", 1, 1)
        with pytest.raises(VersionRegression):
            st.put("a", 2, 1)  # replay
        with pytest.raises(VersionRegression):
            st.put("a", 2, 3)  # gap
        with pytest.raises(VersionRegression):
            st.put("b", 1, 2)  # fresh keys start at 1

    def test_value_kinds_enforced(self):
        st = Store()
        with pytest.raises(TypeMismatch):
            st.put("a", 1.5, 1)

    def test_items_sorted_and_values_dict(self):
        st = Store()
        st.put("b", 2, 1)
        st.put("a", "x", 1)
        st.put("c", True, 1)
        assert st.items() == [("a", "x", 1), ("b", 2, 1), ("c", True, 1)]
        assert st.values_dict() == {"a": "x", "b": 2, "c": True}

    def test_restore_record_bypasses_succession(self):
        st = Store()
        st.restore_record("a", 9, 17)
        assert st.get("a") == (9, 17)
        st.put("a", 10, 18)
        with pytest.raises(SnapshotError):
            st.restore_record("b", 1, 0)  # versions start at 1


def _record(key: str, tag: int, payload: bytes, version: int) -> bytes:
    kb = key.encode("utf-8")
    return struct.pack("<I", len(kb)) + kb + bytes([tag]) + payload \
        + struct.pack("<Q", version)


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        st = Store()
        st.put("int", -7, 1)
        st.put("str", "héllo", 1)
        st.put("str", "wörld", 2)
        st.put("bool", True, 1)
        path = str(tmp_path / "snap.bin")
        st.save_snapshot(path)
        back = Store.load_snapshot(path)
        assert back.items() == st.items()

    def test_exact_byte_layout(self, tmp_path):
        st = Store()
        st.put("k", 5, 1)
        st.put("s", "ab", 1)
        st.put("t", False, 1)
        path = str(tmp_path / "snap.bin")
        st.save_snapshot(path)
        expected = (
            _record("k", 0, struct.pack("<q", 5), 1)
            + _record("s", 1, struct.pack("<I", 2) + b"ab", 1)
            + _record("t", 2, b"\x00", 1)
        )
        with open(path, "rb") as f:
            assert f.read() == expected

    def test_save_load_identical_bytes(self, tmp_path):
        st = Store()
        st.put("a", 2 ** 62, 1)
        st.put("b", "x" * 300, 1)
        p1 = str(tmp_path / "one.bin")
        p2 = str(tmp_path / "two.bin")
        st.save_snapshot(p1)
        Store.load_snapshot(p1).save_snapshot(p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_empty_file_is_empty_store(self, tmp_path):
        path = str(tmp_path / "empty.bin")
        Store().save_snapshot(path)
        assert open(path, "rb").read() == b""
        assert Store.load_snapshot(path).items() == []

    def test_truncated_rejected(self, tmp_path):
        st = Store()
        st.put("key", 1, 1)
        path = str(tmp_path / "snap.bin")
        st.save_snapshot(path)
        blob = open(path, "rb").read()
        for cut in (1, len(blob) // 2, len(blob) - 1):
            bad = str(tmp_path / ("cut%d.bin" % cut))
            with open(bad, "wb") as f:
                f.write(blob[:cut])
            with pytest.raises(SnapshotError):
                Store.load_snapshot(bad)

    def test_bad_tag_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        with open(path, "wb") as f:
            f.write(_record("k", 7, b"\x00", 1))
        with pytest.raises(SnapshotError):
            Store.load_snapshot(path)

    def test_bad_utf8_rejected(self, tmp_path):
        bad_key = struct.pack("<I", 1) + b"\xff" + b"\x00" \
            + struct.pack("<q", 1) + struct.pack("<Q", 1)
        bad_value = _record("k", 1, struct.pack("<I", 1) + b"\xff", 1)
        for i, blob in enumerate((bad_key, bad_value)):
            path = str(tmp_path / ("bad%d.bin" % i))
            with open(path, "wb") as f:
                f.write(blob)
            with pytest.raises(SnapshotError):
                Store.load_snapshot(path)

    def test_zero_version_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        with open(path, "wb") as f:
            f.write(_record("k", 0, struct.pack("<q", 1), 0))
        with pytest.raises(SnapshotError):
            Store.load_snapshot(path)

    def test_record_longer_than_the_read_buffer(self, tmp_path):
        st = Store()
        for i in range(100):
            st.restore_record("a/%03d" % i, i, 1 + i % 3)
        st.restore_record("m/long", "é" + "ab" * 100000, 2)
        for i in range(100):
            st.restore_record("z/%03d" % i, i % 2 == 0, 1)
        path = str(tmp_path / "snap.bin")
        st.save_snapshot(path)
        with open(path, "rb") as f:
            blob = f.read()
        assert Store.load_snapshot(path).items() == st.items()

        start = 100 * 26  # 26 bytes per "a/..." int record
        end = start + 4 + 6 + 1 + 4 + 200002 + 8
        assert end - start > _READ_BYTES
        assert blob[start + 4:start + 10] == b"m/long"

        def load(data, into=None):
            cut = str(tmp_path / "cut.bin")
            with open(cut, "wb") as f:
                f.write(data)
            return Store.load_snapshot(cut, into)

        for cut in (start + 2, start + 7, start + 12, _READ_BYTES,
                    2 * _READ_BYTES + 5, end - 1):
            with pytest.raises(SnapshotError,
                               match="truncated snapshot at byte %d$" % start):
                load(blob[:cut])
        # a cut on a record boundary past the first buffer is a whole file
        assert load(blob[:end]).items() == st.items()[:101]
        # errors past the first buffer name their offset in the file, and
        # the records before them stay installed
        bad = bytearray(blob)
        bad[end + 4 + 5] = 7
        dest = Store()
        with pytest.raises(SnapshotError,
                           match="unknown value tag 7 at byte %d$" % end):
            load(bytes(bad), into=lambda _key: dest)
        assert dest.items() == st.items()[:101]


def _records(n):
    """n records shaped like a TPC-C store: counters, and write-once order
    rows whose payload lists ten lines; some counters at versions above 1."""
    out = []
    for i in range(n):
        if i % 3:
            lines = ",".join("%d:%d:%d" % (i % 2 + 1, (i + j) % 1000, j + 1)
                             for j in range(10))
            out.append(("w%d/d%d/order/%d" % (i % 2 + 1, i % 10, i),
                        "items=" + lines, 1))
        else:
            out.append(("w%d/stock/%d" % (i % 2 + 1, i), i % 91 - 45,
                        1 + i % 4))
    out.append(("w1/flag", True, 3))
    out.append(("w2/flag", False, 1))
    return out


def _fill(dep, records):
    for key, value, version in records:
        dep.store_for(key).restore_record(key, value, version)


class TestPartitionedSnapshot:
    PLACEMENTS = {
        "hash": lambda: HashPartitionMap(2),
        "directory": lambda: DirectoryPartitionMap(2, {"w1/": 0, "w2/": 1}),
    }

    @pytest.mark.parametrize("policy", sorted(PLACEMENTS))
    def test_same_bytes_as_one_store(self, tmp_path, policy):
        records = _records(3000)
        cluster = Cluster(self.PLACEMENTS[policy]())
        _fill(cluster, records)
        assert all(p.store.items() for p in cluster.partitions)
        single = Store()
        for key, value, version in records:
            single.restore_record(key, value, version)
        one, parts = str(tmp_path / "one.bin"), str(tmp_path / "parts.bin")
        single.save_snapshot(one)
        cluster.save_snapshot(parts)
        with open(one, "rb") as f1, open(parts, "rb") as f2:
            assert f1.read() == f2.read()

        back = Cluster(self.PLACEMENTS[policy]())
        back.load_snapshot(parts)
        for old, new in zip(cluster.partitions, back.partitions):
            assert new.store.items() == old.store.items()
        assert Store.load_snapshot(parts).items() == sorted(records)

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        st = Store()
        st.put("a", 1, 1)
        st.save_snapshot(path)
        with open(path, "rb") as f:
            before = f.read()
        st.restore_record("b", 2 ** 70, 1)  # an int no i64 can hold
        with pytest.raises(struct.error):
            st.save_snapshot(path)
        with open(path, "rb") as f:
            assert f.read() == before
        assert os.listdir(str(tmp_path)) == ["snap.bin"]


class TestSnapshotMemory:
    def test_save_needs_memory_for_keys_not_the_file(self, tmp_path):
        cluster = Cluster(HashPartitionMap(2))
        _fill(cluster, _records(60000))
        path = str(tmp_path / "snap.bin")
        tracemalloc.start()
        try:
            cluster.save_snapshot(path)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the key order costs about ten bytes per record, a record on disk
        # here about ninety
        size = os.path.getsize(path)
        assert size > 5000000
        assert peak < 0.25 * size, (peak, size)

    def test_restore_needs_one_buffer_not_the_file(self, tmp_path):
        cluster = Cluster(HashPartitionMap(2))
        _fill(cluster, _records(60000))
        path = str(tmp_path / "snap.bin")
        cluster.save_snapshot(path)
        back = Cluster(HashPartitionMap(2))
        tracemalloc.start()
        try:
            back.load_snapshot(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for old, new in zip(cluster.partitions, back.partitions):
            assert new.store.items() == old.store.items()
        # beyond the records it installs, a restore holds one read buffer
        # and the unparsed tail of the last one; reading the whole file at
        # once would cost its size
        size = os.path.getsize(path)
        assert size > 5000000
        assert peak - held < 0.10 * size, (peak, held, size)


class TestValuesDict:
    def test_merges_partitions_without_copies(self):
        cluster = Cluster(HashPartitionMap(2))
        records = _records(60000)
        _fill(cluster, records)
        tracemalloc.start()
        try:
            out = cluster.values_dict()
            _held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = sys.getsizeof(out)
        assert out == {key: value for key, value, _version in records}
        before = [p.store.items() for p in cluster.partitions]
        out["w1/flag"] = False
        del out[records[0][0]]
        out["new"] = 1
        assert [p.store.items() for p in cluster.partitions] == before
        # the result's table and its last resize, not one copy per
        # partition on top of it
        assert peak < 1.75 * size, (peak, size)
