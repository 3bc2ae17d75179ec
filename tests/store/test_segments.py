"""Segment file tests: append/read spans, rolling, resume, mmap reads."""

import numpy as np
import pytest

from repro.store import SegmentWriter, open_segment
from repro.store.segments import FLOAT_BYTES, read_span


def vec(*values):
    return np.asarray(values, dtype=np.float64)


class TestSegmentWriter:
    def test_append_returns_spans(self, tmp_path):
        with SegmentWriter(tmp_path, "w1") as writer:
            assert writer.append(vec(1.0, 2.0)) == ("w1-0.f64", 0, 2)
            assert writer.append(vec(3.0)) == ("w1-0.f64", 2, 1)
        data = np.fromfile(tmp_path / "w1-0.f64", dtype="<f8")
        assert data.tolist() == [1.0, 2.0, 3.0]

    def test_rolls_at_size_limit(self, tmp_path):
        with SegmentWriter(tmp_path, "w1",
                           roll_bytes=4 * FLOAT_BYTES) as writer:
            first = writer.append(vec(1.0, 2.0, 3.0))
            second = writer.append(vec(4.0, 5.0))
        assert first[0] == "w1-0.f64"
        assert second == ("w1-1.f64", 0, 2)

    def test_oversized_vector_gets_own_file(self, tmp_path):
        with SegmentWriter(tmp_path, "w1",
                           roll_bytes=2 * FLOAT_BYTES) as writer:
            writer.append(vec(1.0))
            span = writer.append(vec(2.0, 3.0, 4.0))
        assert span == ("w1-1.f64", 0, 3)

    def test_resume_skips_existing_files(self, tmp_path):
        with SegmentWriter(tmp_path, "w1") as writer:
            writer.append(vec(1.0))
        resumed = SegmentWriter(tmp_path, "w1")
        with resumed:
            span = resumed.append(vec(2.0))
        assert span == ("w1-1.f64", 0, 1)
        # the original file is untouched
        assert np.fromfile(
            tmp_path / "w1-0.f64", dtype="<f8"
        ).tolist() == [1.0]

    def test_writers_never_collide(self, tmp_path):
        with SegmentWriter(tmp_path, "a") as wa, \
                SegmentWriter(tmp_path, "b") as wb:
            sa = wa.append(vec(1.0))
            sb = wb.append(vec(2.0))
        assert sa[0] != sb[0]

    def test_same_id_writers_never_share_a_file(self, tmp_path):
        with SegmentWriter(tmp_path, "w1") as first, \
                SegmentWriter(tmp_path, "w1") as second:
            one = first.append(vec(1.0))
            two = second.append(vec(2.0))
        assert one == ("w1-0.f64", 0, 1)
        assert two == ("w1-1.f64", 0, 1)

    def test_twin_store_writers_keep_their_own_vectors(self, tmp_path):
        # Two writers of one (fingerprint, job) -- twin campaigns
        # promoting at once -- interleave their adds and commits.
        from repro.hw.cxl import cxl_a
        from repro.hw.cxl.eventdevice import EventDrivenDevice
        from repro.store import ResultStore

        def doc(gbps):
            return EventDrivenDevice(cxl_a(), seed=7).simulate(
                64, gbps
            ).to_dict()

        fp, k1, k2 = "f" * 64, "1" * 64, "2" * 64
        w1 = ResultStore(tmp_path).writer(fp)
        w2 = ResultStore(tmp_path).writer(fp)
        w1.add(k1, doc(1.0))
        w2.add(k2, doc(2.0))
        w1.commit()
        w2.commit()
        store = ResultStore(tmp_path)
        assert store.get(k2)["offered_gbps"] == 2.0
        for key in store.keys():
            assert store.get(key)["offered_gbps"] == {k1: 1.0, k2: 2.0}[key]

    def test_invalid_writer_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="writer id"):
            SegmentWriter(tmp_path, "bad/id")
        with pytest.raises(ValueError, match="writer id"):
            SegmentWriter(tmp_path, "")

    def test_multidimensional_vector_rejected(self, tmp_path):
        with SegmentWriter(tmp_path, "w1") as writer:
            with pytest.raises(ValueError, match="one-dimensional"):
                writer.append(np.zeros((2, 2)))


class TestReads:
    def test_read_span_bit_exact(self, tmp_path):
        values = [0.1 + 0.2, -0.0, 1e-308, 3.5]
        with SegmentWriter(tmp_path, "w1") as writer:
            writer.append(vec(9.0))
            segment, offset, length = writer.append(vec(*values))
        span = read_span(tmp_path / segment, offset, length)
        assert span.tobytes() == vec(*values).tobytes()

    def test_out_of_range_span_rejected(self, tmp_path):
        with SegmentWriter(tmp_path, "w1") as writer:
            segment = writer.append(vec(1.0))[0]
        with pytest.raises(ValueError, match="exceeds"):
            read_span(tmp_path / segment, 0, 2)

    def test_open_segment_memoized_per_size(self, tmp_path):
        with SegmentWriter(tmp_path, "w1") as writer:
            segment = writer.append(vec(1.0))[0]
        path = tmp_path / segment
        first = open_segment(path)
        assert open_segment(path) is first
        # growing the file yields a fresh, larger mapping
        with open(path, "ab") as handle:
            handle.write(vec(2.0).tobytes())
        grown = open_segment(path)
        assert grown.size == 2
        assert grown is not first

    def test_empty_file_maps_to_empty_array(self, tmp_path):
        path = tmp_path / "empty.f64"
        path.touch()
        assert open_segment(path).size == 0
