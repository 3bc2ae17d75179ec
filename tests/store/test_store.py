"""ResultStore tests: bit-exact reads, scans, accretion."""

import json
import math

import numpy as np
import pytest

from repro.cpu.pipeline import run_workload
from repro.hw.cxl import cxl_a, cxl_b
from repro.hw.cxl.eventdevice import EventDrivenDevice, EventSimResult
from repro.runtime.serialize import (
    platform_to_dict,
    run_result_to_dict,
    workload_to_dict,
)
from repro.runtime.cache import RunCache, blob_ref, run_key
from repro.store import (
    Manifest,
    ManifestEntry,
    ResultStore,
    SegmentWriter,
    canonical_document,
    skeleton_ref,
    split_document,
)
from repro.store.store import PART_FAN_IN, ROW_FIELDS

FP = "f" * 64


def sim_doc(device=None, gbps=4.0, n=600, seed=7):
    device = device if device is not None else cxl_a()
    return EventDrivenDevice(device, seed=seed).simulate(
        n, gbps, read_fraction=0.75
    ).to_dict()


def key_of(i):
    return f"{i:064x}"


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestReads:
    def test_eventsim_round_trip_bit_exact(self, store):
        doc = sim_doc()
        writer = store.writer(FP)
        writer.add(key_of(1), doc)
        writer.commit()
        reloaded = store.get(key_of(1))
        assert canonical_document(reloaded) == canonical_document(doc)
        # latency array is a zero-copy view, bit-identical
        assert np.asarray(reloaded["latencies_ns"]).tobytes() == \
            np.asarray(doc["latencies_ns"]).tobytes()

    def test_get_result_reconstructs_eventsim(self, store):
        doc = sim_doc()
        writer = store.writer(FP)
        writer.add(key_of(1), doc)
        writer.commit()
        result = store.get_result(key_of(1))
        assert isinstance(result, EventSimResult)
        assert canonical_document(result.to_dict()) == \
            canonical_document(doc)

    def test_analytic_round_trip_with_blobs(self, store, simple_workload,
                                            emr, device_a):
        result = run_workload(simple_workload, emr, device_a)
        doc = run_result_to_dict(result, embed_context=False)
        doc["workload_ref"] = "w" * 32
        doc["platform_ref"] = "p" * 32
        writer = store.writer(FP)
        writer.add(
            key_of(2), doc,
            workload_doc=workload_to_dict(simple_workload),
            platform_doc=platform_to_dict(emr),
        )
        writer.commit()
        assert canonical_document(store.get(key_of(2))) == \
            canonical_document(doc)
        entry = store.entry_for(key_of(2))
        assert entry.kind == "analytic"
        assert entry.workload == simple_workload.name
        assert math.isnan(entry.offered_gbps)

    def test_missing_key_raises(self, store):
        with pytest.raises(KeyError):
            store.get(key_of(9))
        assert key_of(9) not in store

    def test_reload_from_disk(self, tmp_path, store):
        writer = store.writer(FP)
        writer.add(key_of(1), sim_doc())
        writer.commit()
        fresh = ResultStore(tmp_path / "store")
        assert len(fresh) == 1
        assert canonical_document(fresh.get(key_of(1))) == \
            canonical_document(store.get(key_of(1)))

    def test_corrupt_manifest_counted_and_skipped(self, tmp_path, store):
        writer = store.writer(FP)
        writer.add(key_of(1), sim_doc())
        writer.commit()
        bad = tmp_path / "store" / "manifests" / ("e" * 64 + ".json")
        bad.write_text("{truncated")
        fresh = ResultStore(tmp_path / "store")
        assert len(fresh) == 1
        assert fresh.corrupt_manifests == 1
        assert fresh.stats()["corrupt_manifests"] == 1


class TestScan:
    @pytest.fixture
    def populated(self, store):
        writer = store.writer(FP)
        writer.add(key_of(0), sim_doc(cxl_a(), gbps=2.0))
        writer.add(key_of(1), sim_doc(cxl_a(), gbps=8.0))
        writer.add(key_of(2), sim_doc(cxl_b(), gbps=8.0))
        writer.commit()
        return store

    def test_device_filter(self, populated):
        hits = populated.scan(device="CXL-A")
        assert {hit.key for hit in hits} == {key_of(0), key_of(1)}

    def test_gbps_bounds(self, populated):
        hits = populated.scan(min_gbps=5.0)
        assert {hit.key for hit in hits} == {key_of(1), key_of(2)}
        hits = populated.scan(device="CXL-A", max_gbps=5.0)
        assert {hit.key for hit in hits} == {key_of(0)}

    def test_fingerprint_prefix(self, populated):
        assert len(populated.scan(fingerprint=FP[:12])) == 3
        assert populated.scan(fingerprint="0" * 12) == []

    def test_hit_percentile_matches_document(self, populated):
        hit = populated.scan(device="CXL-B")[0]
        latencies = np.asarray(populated.get(hit.key)["latencies_ns"])
        assert hit.percentile(99) == float(np.percentile(latencies, 99))

    def test_query_rows_sorted_and_shaped(self, populated):
        rows = populated.query_rows(percentiles=(50.0, 99.9))
        assert [r["key"] for r in rows] == [key_of(0), key_of(1),
                                            key_of(2)]
        assert "p50_ns" in rows[0] and "p99.9_ns" in rows[0]
        assert rows[0]["mean_ns"] == pytest.approx(
            float(np.mean(populated.get(key_of(0))["latencies_ns"]))
        )
        assert populated.query_rows(limit=2)[-1]["key"] == key_of(1)


class TestMergeAndAccretion:
    def test_writer_accretes_existing_manifest(self, tmp_path, store):
        writer = store.writer(FP)
        writer.add(key_of(0), sim_doc(gbps=2.0))
        writer.commit()
        again = store.writer(FP)
        assert len(again) == 0  # counts only its own rows
        again.add(key_of(1), sim_doc(gbps=8.0))
        again.commit()  # merges with the committed manifest
        fresh = ResultStore(tmp_path / "store")
        assert set(fresh.keys()) == {key_of(0), key_of(1)}
        assert len(fresh.manifests()) == 1
        # the first span still reads back intact
        assert canonical_document(fresh.get(key_of(0))) == \
            canonical_document(store.get(key_of(0)))

    def test_overlapping_writers_keep_every_row(self, tmp_path, store):
        # Both writers of one (fingerprint, job) are open before either
        # commits: the later commit merges, it does not replace.
        first, second = store.writer(FP), store.writer(FP)
        first.add(key_of(0), sim_doc(gbps=2.0))
        second.add(key_of(1), sim_doc(gbps=4.0))
        first.flush()
        second.add(key_of(2), sim_doc(gbps=6.0))
        first.add(key_of(3), sim_doc(gbps=8.0))
        first.commit()
        second.commit()
        fresh = ResultStore(tmp_path / "store")
        assert set(fresh.keys()) == {key_of(i) for i in range(4)}
        (manifest,) = fresh.manifests()
        assert len(manifest) == 4
        for i in range(4):
            assert canonical_document(fresh.get(key_of(i))) == \
                canonical_document(store.get(key_of(i)))

    def test_flush_writes_only_the_new_rows(self, tmp_path, store):
        writer = store.writer(FP)
        writer.add(key_of(0), sim_doc(gbps=2.0))
        first = Manifest.load(writer.flush())
        assert writer.flush() is None  # nothing new
        writer.add(key_of(1), sim_doc(gbps=8.0))
        second = Manifest.load(writer.flush())
        assert (first.keys(), second.keys()) == ([key_of(0)], [key_of(1)])
        assert set(store.keys()) == {key_of(0), key_of(1)}
        fresh = ResultStore(tmp_path / "store")
        assert set(fresh.keys()) == {key_of(0), key_of(1)}
        assert len(fresh.manifests()) == 2
        writer.commit()
        assert [p.name for p in store.manifest_dir.glob("*.json")] \
            == [f"{FP}.json"]
        assert len(store.manifests()) == 1

    def test_unmerged_parts_fold_by_level(self, tmp_path, store):
        # F**2 + 3 flushes (F = PART_FAN_IN): one part of F**2 rows, none
        # of F, three of one; every row still readable, fresh or live.
        fan = PART_FAN_IN
        writer, doc = store.writer(FP), sim_doc()
        for i in range(fan * fan + 3):
            writer.add(key_of(i), doc)
            writer.flush()
        parts = sorted(
            len(Manifest.load(path))
            for path in store.manifest_dir.glob("*.json")
        )
        assert parts == [1, 1, 1, fan * fan]
        keys = {key_of(i) for i in range(fan * fan + 3)}
        assert set(store.keys()) == keys
        assert len(store.manifests()) == 4
        assert set(ResultStore(tmp_path / "store").keys()) == keys
        writer.commit()
        assert [p.name for p in store.manifest_dir.glob("*.json")] \
            == [f"{FP}.json"]

    def test_fold_killed_before_its_unlinks_keeps_every_row(
        self, tmp_path, store, monkeypatch
    ):
        import os
        import types

        import repro.store.store as store_module

        class Killed(Exception):
            pass

        def unlink(path):
            raise Killed(path)

        writer, doc = store.writer(FP), sim_doc()
        for i in range(PART_FAN_IN - 1):
            writer.add(key_of(i), doc)
            writer.flush()
        monkeypatch.setattr(store_module, "os", types.SimpleNamespace(
            urandom=os.urandom, unlink=unlink,
        ))
        writer.add(key_of(PART_FAN_IN - 1), doc)
        with pytest.raises(Killed):
            writer.flush()  # the folded part is written, nothing deleted
        monkeypatch.undo()
        keys = {key_of(i) for i in range(PART_FAN_IN)}
        fresh = ResultStore(tmp_path / "store")
        assert set(fresh.keys()) == keys
        assert len(fresh.manifests()) == PART_FAN_IN + 1
        assert fresh.corrupt_manifests == 0
        fresh.writer(FP).commit()  # a later merge folds them all
        (manifest,) = ResultStore(tmp_path / "store").manifests()
        assert set(manifest.keys()) == keys

    def test_commit_folds_parts_a_killed_writer_left(self, tmp_path, store):
        orphan = store.writer(FP)
        orphan.add(key_of(0), sim_doc(gbps=2.0))
        orphan.flush()  # ...and never commits
        writer = ResultStore(tmp_path / "store").writer(FP)
        writer.add(key_of(1), sim_doc(gbps=8.0))
        writer.commit()
        assert [p.name for p in store.manifest_dir.glob("*.json")] \
            == [f"{FP}.json"]
        assert set(ResultStore(tmp_path / "store").keys()) \
            == {key_of(0), key_of(1)}

    def test_store_is_self_contained(self, tmp_path, store, simple_workload,
                                     emr, device_a):
        """A copied store directory answers reads with no JSON tier."""
        import shutil

        result = run_workload(simple_workload, emr, device_a)
        doc = run_result_to_dict(result, embed_context=False)
        doc["workload_ref"] = "w" * 32
        doc["platform_ref"] = "p" * 32
        writer = store.writer(FP)
        writer.add(key_of(3), doc,
                   workload_doc=workload_to_dict(simple_workload),
                   platform_doc=platform_to_dict(emr))
        writer.commit()
        copy = tmp_path / "copy"
        shutil.copytree(tmp_path / "store", copy)
        relocated = ResultStore(copy)
        reloaded = relocated.get_result(key_of(3))
        assert json.dumps(
            run_result_to_dict(reloaded), sort_keys=True
        ) == json.dumps(run_result_to_dict(result), sort_keys=True)


def analytic_doc(workload, platform, target, refs=True):
    """One run's document with the blob refs its store row carries."""
    doc = run_result_to_dict(
        run_workload(workload, platform, target), embed_context=False
    )
    if refs:
        doc["workload_ref"] = blob_ref(workload, workload_to_dict)
        doc["platform_ref"] = blob_ref(platform, platform_to_dict)
    return doc


def shape_ref(doc):
    """Skeleton ref of ``doc`` without its row-recorded fields."""
    body = {k: v for k, v in doc.items() if k not in ROW_FIELDS}
    return skeleton_ref(split_document(body)[0])


class TestSharedSkeletons:
    @pytest.fixture
    def workloads(self):
        from repro.workloads import all_workloads

        return all_workloads()[:4]

    def test_analytic_cells_share_skeletons(self, tmp_path, workloads,
                                            emr, device_a, device_b):
        cache = RunCache(str(tmp_path))
        docs = {}
        for workload in workloads:
            for target in (device_a, device_b):
                key = run_key(workload, emr, target)
                cache.put(key, run_workload(workload, emr, target))
                docs[key] = analytic_doc(workload, emr, target)
        cache.close()
        fresh = ResultStore(tmp_path / "store")
        (manifest,) = fresh.manifests()
        assert len(manifest) == len(docs)
        # one skeleton per document shape, whatever the target and refs
        assert set(manifest.skeletons) == {
            shape_ref(doc) for doc in docs.values()
        }
        assert len(manifest.skeletons) < len(manifest)
        for skeleton in manifest.skeletons.values():
            assert not set(ROW_FIELDS) & set(skeleton)
        for key, doc in docs.items():
            assert canonical_document(fresh.get(key)) == \
                canonical_document(doc)
            entry = fresh.entry_for(key)
            assert entry.target == doc["target_name"]
            assert entry.workload_ref == doc["workload_ref"]
            result = fresh.get_result(key)
            assert json.dumps(run_result_to_dict(result),
                              sort_keys=True) == \
                json.dumps(run_result_to_dict(cache.get(key)),
                           sort_keys=True)

    def test_missing_and_empty_fields_round_trip(self, tmp_path, store,
                                                  simple_workload, emr,
                                                  device_a):
        bare = analytic_doc(simple_workload, emr, device_a, refs=False)
        empty = dict(bare, workload_ref="", platform_ref="")
        blank = dict(empty, target_name="")
        one_ref = dict(bare, workload_ref="w" * 32)
        docs = {key_of(i): doc
                for i, doc in enumerate((bare, empty, blank, one_ref))}
        writer = store.writer(FP)
        for key, doc in docs.items():
            writer.add(key, doc)
        writer.commit()
        fresh = ResultStore(tmp_path / "store")
        for key, doc in docs.items():
            got = fresh.get(key)
            assert sorted(got) == sorted(doc)
            assert canonical_document(got) == canonical_document(doc)

    def test_older_layout_reads_unchanged_and_extends(
        self, tmp_path, store, workloads, emr, device_a, device_b
    ):
        # A manifest whose skeletons still carry the row fields: the
        # layout of stores written before analytic skeletons were shared.
        old_docs = {
            key_of(i): analytic_doc(workload, emr, device_a)
            for i, workload in enumerate(workloads)
        }
        manifest = Manifest(FP)
        segments = SegmentWriter(store.segment_dir, "older")
        for key, doc in old_docs.items():
            skeleton, vector = split_document(doc)
            ref = skeleton_ref(skeleton)
            manifest.skeletons[ref] = skeleton
            segment, offset, length = segments.append(vector)
            manifest.add(ManifestEntry(
                key=key, kind="analytic", device=doc["target_name"],
                workload="", target=doc["target_name"], fault_plan="",
                offered_gbps=math.nan, read_fraction=math.nan,
                skeleton=ref, segment=segment, offset=offset,
                length=length, n=0, workload_ref=doc["workload_ref"],
                platform_ref=doc["platform_ref"],
            ))
            manifest.blobs[doc["workload_ref"]] = workload_to_dict(
                workloads[int(key, 16)]
            )
            manifest.blobs[doc["platform_ref"]] = platform_to_dict(emr)
        segments.flush()
        segments.close()
        manifest.write(store.manifest_dir)
        assert len(manifest.skeletons) == len(old_docs)

        def check(reader, docs):
            for key, doc in docs.items():
                assert canonical_document(reader.get(key)) == \
                    canonical_document(doc)
                result = reader.get_result(key)
                assert result.target_name == doc["target_name"]
                assert json.dumps(
                    run_result_to_dict(result, embed_context=False),
                    sort_keys=True,
                ) == json.dumps(
                    {k: v for k, v in doc.items()
                     if k not in ("workload_ref", "platform_ref")},
                    sort_keys=True,
                )

        check(ResultStore(tmp_path / "store"), old_docs)
        new_docs = {
            key_of(100 + i): analytic_doc(workload, emr, device_b)
            for i, workload in enumerate(workloads)
        }
        writer = ResultStore(tmp_path / "store").writer(FP)
        for key, doc in new_docs.items():
            writer.add(key, doc,
                       workload_doc=workload_to_dict(
                           workloads[int(key, 16) - 100]),
                       platform_doc=platform_to_dict(emr))
        writer.commit()
        fresh = ResultStore(tmp_path / "store")
        assert len(fresh) == len(old_docs) + len(new_docs)
        check(fresh, old_docs)
        check(fresh, new_docs)
