"""Manifest tests: columnar encode/decode, vectorized masks, atomicity."""

import json
import math

import numpy as np
import pytest

from repro.store import Manifest, ManifestEntry


def entry(i, device="CXL-A", kind="eventsim", gbps=4.0, fault=""):
    return ManifestEntry(
        key=f"{i:064x}",
        kind=kind,
        device=device,
        workload="" if kind == "eventsim" else f"wl{i}",
        target=device,
        fault_plan=fault,
        offered_gbps=gbps,
        read_fraction=0.75,
        skeleton="s" * 24,
        segment="w-0.f64",
        offset=i * 10,
        length=10,
        n=10,
    )


class TestBuild:
    def test_add_and_entry_round_trip(self):
        manifest = Manifest("f" * 64)
        original = entry(1)
        manifest.add(original)
        assert len(manifest) == 1
        assert manifest.entry(0) == original
        assert manifest.key_at(0) == original.key

    def test_bad_key_length_rejected(self):
        manifest = Manifest("f" * 64)
        with pytest.raises(ValueError, match="64 hex"):
            manifest.add(
                ManifestEntry(
                    key="short", kind="eventsim", device="d", workload="",
                    target="d", fault_plan="", offered_gbps=1.0,
                    read_fraction=0.5, skeleton="s", segment="x.f64",
                    offset=0, length=1, n=1,
                )
            )

    def test_key_index_first_wins(self):
        manifest = Manifest("f" * 64)
        manifest.add(entry(1, gbps=1.0))
        manifest.add(entry(1, gbps=2.0))
        assert manifest.key_index()[f"{1:064x}"] == 0

    def test_match_mask_vectorized(self):
        manifest = Manifest("f" * 64)
        manifest.add(entry(0, device="CXL-A"))
        manifest.add(entry(1, device="CXL-B"))
        manifest.add(entry(2, device="CXL-A"))
        mask = manifest.match_mask("device", "CXL-A")
        assert mask.tolist() == [True, False, True]
        assert manifest.match_mask("device", "CXL-Z").tolist() == \
            [False, False, False]

    def test_numeric_columns_typed(self):
        manifest = Manifest("f" * 64)
        manifest.add(entry(0, gbps=2.5))
        assert manifest.column("offered_gbps").dtype == np.float64
        assert manifest.column("offset").dtype == np.int64
        with pytest.raises(KeyError):
            manifest.column("device")


class TestSerialization:
    def build(self):
        manifest = Manifest("a" * 64, "shard0of2")
        manifest.skeletons["s" * 24] = {"latencies_ns": "\x00F10"}
        manifest.blobs["b" * 32] = {"name": "wl"}
        manifest.add(entry(0, device="CXL-A", gbps=2.0))
        manifest.add(entry(1, device="CXL-B", gbps=6.0, fault="fp1"))
        manifest.add(entry(2, kind="analytic", gbps=math.nan))
        return manifest

    def test_dict_round_trip(self):
        manifest = self.build()
        # through JSON, exactly as the disk path serializes it
        data = json.loads(json.dumps(manifest.to_dict()))
        loaded = Manifest.from_dict(data)
        assert loaded.fingerprint == manifest.fingerprint
        assert loaded.job_id == manifest.job_id
        assert loaded.keys() == manifest.keys()
        assert loaded.skeletons == manifest.skeletons
        assert loaded.blobs == manifest.blobs
        for row in range(len(manifest)):
            got, want = loaded.entry(row), manifest.entry(row)
            for field in ("key", "kind", "device", "fault_plan", "offset",
                          "length", "n", "segment", "skeleton"):
                assert getattr(got, field) == getattr(want, field)
        # NaN columns survive (JSON NaN literals)
        assert math.isnan(loaded.entry(2).offered_gbps)

    def test_version_mismatch_refused(self):
        data = self.build().to_dict()
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            Manifest.from_dict(data)

    def test_truncated_key_column_refused(self):
        data = self.build().to_dict()
        data["keys"] = data["keys"][:-4]
        with pytest.raises(ValueError, match="key column"):
            Manifest.from_dict(data)

    def test_code_out_of_range_refused(self):
        data = self.build().to_dict()
        data["codes"]["device"][0] = 99
        with pytest.raises(ValueError, match="out of range"):
            Manifest.from_dict(data)

    def test_column_length_mismatch_refused(self):
        data = self.build().to_dict()
        data["floats"]["offered_gbps"].append(1.0)
        with pytest.raises(ValueError, match="length mismatch"):
            Manifest.from_dict(data)


class TestDisk:
    def test_write_load_round_trip(self, tmp_path):
        manifest = Manifest("c" * 64)
        manifest.add(entry(0))
        path = manifest.write(tmp_path)
        assert path.name == "c" * 64 + ".json"
        loaded = Manifest.load(path)
        assert loaded.keys() == manifest.keys()
        assert not list(tmp_path.glob("*.tmp.*"))  # no temp debris

    def test_document_is_json_dumps_bytes(self, tmp_path):
        manifest = Manifest("c" * 64, "shard0of2")
        manifest.skeletons["s" * 24] = {"latencies_ns": "\x00F10"}
        manifest.blobs["b" * 32] = {"name": "wl"}
        manifest.add(entry(0))
        manifest.add(entry(1, kind="analytic", gbps=math.nan))
        path = manifest.write(tmp_path)
        with open(path) as handle:
            text = handle.read()
        assert text == json.dumps(manifest.to_dict())
        assert "NaN" in text

    def test_shard_filename_carries_job_id(self, tmp_path):
        manifest = Manifest("c" * 64, "shard1of2")
        path = manifest.write(tmp_path)
        assert path.name == "c" * 64 + ".shard1of2.json"
