"""Codec tests: the split/join round trip must be lossless, bit for bit."""

import json
import math

import numpy as np
import pytest

from repro.store import canonical_document, skeleton_ref, split_document
from repro.store.codec import _MIN_PACKED_LIST, array_span, compile_skeleton


def join(skeleton, vector):
    """The store's one join: compile the skeleton, apply it."""
    return compile_skeleton(skeleton)(vector)


def roundtrip(doc):
    skeleton, vector = split_document(doc)
    # JSON round trip: skeletons travel inside manifest files.
    skeleton = json.loads(json.dumps(skeleton))
    return join(skeleton, vector)


class TestRoundTrip:
    def test_scalars_and_structure(self):
        doc = {
            "name": "cell",
            "value": 3.25,
            "count": 7,
            "flag": True,
            "off": False,
            "missing": None,
            "nested": {"z": 1.5, "a": [1, 2.0, "x"]},
        }
        out = roundtrip(doc)
        assert out == doc
        assert type(out["count"]) is int
        assert type(out["value"]) is float
        assert type(out["flag"]) is bool

    def test_float_bit_patterns_survive(self):
        values = [0.1 + 0.2, 1e-308, -0.0, 1.7976931348979157e308,
                  math.pi] * 2
        out = roundtrip({"latencies_ns": values})
        assert np.asarray(out["latencies_ns"]).tobytes() == \
            np.asarray(values).tobytes()

    def test_long_float_list_packs_to_span(self):
        values = [float(i) * 1.5 for i in range(_MIN_PACKED_LIST)]
        skeleton, vector = split_document({"latencies_ns": values})
        assert skeleton["latencies_ns"] == f"\x00F{_MIN_PACKED_LIST}"
        assert vector.tolist() == values
        out = join(skeleton, vector)
        assert isinstance(out["latencies_ns"], np.ndarray)
        assert out["latencies_ns"].tolist() == values

    def test_short_float_list_stays_elementwise(self):
        skeleton, _ = split_document({"xs": [1.0, 2.0]})
        assert skeleton["xs"] == ["\x00f", "\x00f"]

    def test_int_list_not_packed(self):
        values = list(range(_MIN_PACKED_LIST + 2))
        out = roundtrip({"xs": values})
        assert out["xs"] == values
        assert all(type(v) is int for v in out["xs"])

    def test_huge_int_stays_literal(self):
        big = 2 ** 63 + 1
        skeleton, vector = split_document({"big": big, "small": 4})
        assert skeleton["big"] == big
        assert vector.tolist() == [4.0]
        assert roundtrip({"big": big}) == {"big": big}

    def test_marker_like_string_escaped(self):
        doc = {"s": "\x00f", "t": "\x00anything", "plain": "fine"}
        assert roundtrip(doc) == doc

    def test_dict_order_canonical(self):
        a = {"b": 1.0, "a": 2.0}
        b = {"a": 2.0, "b": 1.0}
        sk_a, vec_a = split_document(a)
        sk_b, vec_b = split_document(b)
        assert sk_a == sk_b
        assert vec_a.tolist() == vec_b.tolist()
        assert skeleton_ref(sk_a) == skeleton_ref(sk_b)

    def test_one_compiled_join_serves_every_vector_of_its_shape(self):
        docs = [{"name": "cell", "x": float(i) / 3, "n": i,
                 "xs": [float(i + j) for j in range(_MIN_PACKED_LIST)]}
                for i in range(4)]
        skeletons, vectors = zip(*map(split_document, docs))
        assert len({skeleton_ref(sk) for sk in skeletons}) == 1
        joined = compile_skeleton(skeletons[0])
        for doc, vector in zip(docs, vectors):
            out = joined(vector)
            assert canonical_document(out) == canonical_document(doc)
            assert type(out["n"]) is int

    def test_unstorable_type_raises(self):
        with pytest.raises(TypeError, match="not storable"):
            split_document({"x": object()})


class TestJoinValidation:
    def test_short_vector_rejected(self):
        skeleton, vector = split_document({"a": 1.0, "b": 2.0})
        with pytest.raises(ValueError):
            join(skeleton, vector[:1])

    def test_long_vector_rejected(self):
        skeleton, vector = split_document({"a": 1.0})
        with pytest.raises(ValueError):
            join(skeleton, np.concatenate([vector, [9.0]]))

    def test_truncated_span_rejected(self):
        values = [float(i) for i in range(_MIN_PACKED_LIST)]
        skeleton, vector = split_document({"xs": values})
        with pytest.raises(ValueError):
            join(skeleton, vector[:-2])

    def test_unknown_marker_rejected(self):
        with pytest.raises(ValueError, match="marker"):
            join({"x": "\x00q"}, np.zeros(0))


class TestArraySpan:
    def test_span_locates_packed_array(self):
        values = [float(i) for i in range(_MIN_PACKED_LIST + 4)]
        doc = {"alpha": 1.0, "latencies_ns": values, "omega": 2}
        skeleton, vector = split_document(doc)
        offset, length = array_span(skeleton, "latencies_ns")
        assert vector[offset:offset + length].tolist() == values

    def test_missing_field_raises(self):
        skeleton, _ = split_document({"a": 1.0})
        with pytest.raises(KeyError):
            array_span(skeleton, "latencies_ns")

    def test_unpacked_field_raises(self):
        skeleton, _ = split_document({"xs": [1.0, 2.0]})
        with pytest.raises(KeyError):
            array_span(skeleton, "xs")


class TestCanonicalDocument:
    def test_ndarray_equals_list(self):
        values = [float(i) * 0.3 for i in range(10)]
        as_list = canonical_document({"xs": values})
        as_array = canonical_document({"xs": np.asarray(values)})
        assert as_list == as_array

    def test_skeleton_ref_is_short_hex(self):
        ref = skeleton_ref({"a": "\x00f"})
        assert len(ref) == 24
        int(ref, 16)
