"""Versioned store behavior and the snapshot file format."""

import struct

import pytest

from lazykv import NotFound, SnapshotError, Store, VersionRegression
from lazykv.futexpr import TypeMismatch


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
