"""Canonical encoding: agreement with the independent reference,
decode round-trips, and the documented golden forms."""

import os
import struct

import pytest
from hypothesis import example, given, strategies as st

from flowforge.canon import (CanonError, canon_bytes, canon_decode,
                             canon_digest, file_digest, tree_digest)
from reference_canon import ref_canon, ref_canon_digest, ref_render_float

scalars = (st.none() | st.booleans()
           | st.integers(min_value=-2**70, max_value=2**70)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.text(max_size=24))
values = st.recursive(
    scalars,
    lambda child: (st.lists(child, max_size=4)
                   | st.dictionaries(st.text(max_size=8), child, max_size=4)),
    max_leaves=12)


def same(a, b):
    """Structural equality that keeps bool/int/float apart and compares
    floats bit-for-bit (so -0.0 != 0.0 and round-trips are exact)."""
    if type(a) is not type(b):
        if not (isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))):
            return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


# 2**-24, whose shortest round-tripping decimal is not the correctly
# rounded one at its precision, and an exact tie broken to the even digit
FLOAT_EDGES = (5.960464477539063e-08, 142129249267021.88)


@given(values)
@example(FLOAT_EDGES[0])
@example(FLOAT_EDGES[1])
def test_matches_reference_encoder(v):
    assert canon_bytes(v) == ref_canon(v)


@given(values)
def test_digest_matches_reference(v):
    assert canon_digest(v) == ref_canon_digest(v)


@given(values)
def test_decode_round_trips(v):
    assert same(canon_decode(canon_bytes(v)), v)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(FLOAT_EDGES[0])
@example(FLOAT_EDGES[1])
def test_float_rendering_matches_repr(v):
    assert ref_render_float(v) == repr(v)


@pytest.mark.parametrize("v,text", [
    (0.0, "0.0"),
    (-0.0, "-0.0"),
    (2.0, "2.0"),
    (0.1, "0.1"),
    (1e16, "1e+16"),
    (1e15, "1000000000000000.0"),
    (5e-324, "5e-324"),
    (1e22, "1e+22"),
    (-1.5e-5, "-1.5e-05"),
])
def test_float_golden_forms(v, text):
    assert repr(v) == text  # the engine renders via repr
    assert ref_render_float(v) == text


@pytest.mark.parametrize("v,enc", [
    (None, b"n;"),
    (True, b"t;"),
    (False, b"f;"),
    (0, b"i0;"),
    (-7, b"i-7;"),
    ("", b"s0:;"),
    ("hé", b"s3:h\xc3\xa9;"),
    ([], b"l;"),
    ({}, b"m;"),
    ([1, "a"], b"li1;s1:a;;"),
    ({"b": 1, "a": 2}, b"ms1:a;i2;s1:b;i1;;"),
])
def test_golden_encodings(v, enc):
    assert canon_bytes(v) == enc


def test_map_keys_sort_by_utf8_bytes():
    # "Z" (0x5a) < "a" (0x61) < "é" (0xc3 0xa9)
    enc = canon_bytes({"a": 1, "Z": 2, "é": 3})
    assert enc.index(b"s1:Z;") < enc.index(b"s1:a;") < enc.index(b"s2:\xc3\xa9;")


def test_nonfinite_rejected():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(CanonError):
            canon_bytes(bad)


def test_unencodable_rejected():
    with pytest.raises(CanonError):
        canon_bytes(object())
    with pytest.raises(CanonError):
        canon_bytes({1: "non-string key"})


def test_decode_rejects_trailing_garbage():
    with pytest.raises(CanonError):
        canon_decode(b"i1;i2;")
    with pytest.raises(CanonError):
        canon_decode(b"")
    with pytest.raises(CanonError):
        canon_decode(b"s5:ab;")


def test_file_digest_is_content_only(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "sub" / "renamed.txt"
    b.parent.mkdir()
    a.write_bytes(b"payload")
    b.write_bytes(b"payload")
    later = tmp_path / "later.txt"
    later.write_bytes(b"payload")
    os.utime(later, (0, 0))
    assert file_digest(str(a)) == file_digest(str(b)) == file_digest(str(later))


def test_tree_digest_covers_names_and_content(tmp_path):
    t1 = tmp_path / "t1"
    t2 = tmp_path / "t2"
    t3 = tmp_path / "t3"
    for t in (t1, t2, t3):
        (t / "sub").mkdir(parents=True)
        (t / "sub" / "x.txt").write_bytes(b"one")
    (t3 / "sub" / "x.txt").write_bytes(b"two")
    assert tree_digest(str(t1)) == tree_digest(str(t2))
    assert tree_digest(str(t1)) != tree_digest(str(t3))
    (t2 / "sub" / "x.txt").rename(t2 / "sub" / "y.txt")
    assert tree_digest(str(t1)) != tree_digest(str(t2))
