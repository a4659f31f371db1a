"""Canonical byte encoding for hashable values.

Every digest the engine computes (task fingerprints, environment
fingerprints, workflow digests, directory tree manifests) is a SHA-256
over bytes produced by :func:`canon_bytes`. The encoding is a tagged,
length-delimited format over JSON-shaped values; the byte layout is
documented in docs/canonical-encoding.md and is frozen. Changing it
invalidates every cache on disk, which is why the task fingerprint
preimage carries a schema string instead of a library version.
"""

from __future__ import annotations

import hashlib
import math
import os
from typing import Union

Value = Union[None, bool, int, float, str, list, tuple, dict]


class CanonError(ValueError):
    """Raised for values outside the encodable domain."""


def canon_bytes(value: Value) -> bytes:
    """Encode *value* to its canonical byte form.

    Accepts None, bools, ints, finite floats, strings, lists/tuples,
    and dicts with string keys. Anything else (including NaN and
    infinities, whose ordering and rendering are platform bait) is a
    CanonError.
    """
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def canon_digest(value: Value) -> str:
    """SHA-256 hex digest of the canonical encoding of *value*."""
    return hashlib.sha256(canon_bytes(value)).hexdigest()


def file_digest(path, out=None) -> str:
    """SHA-256 hex digest of a file's raw bytes, streamed. When given,
    the binary file `out` receives every chunk hashed."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
            if out is not None:
                out.write(chunk)
    return h.hexdigest()


def tree_manifest(root, member=None) -> dict:
    """Canonical manifest of a directory: every regular file, recursively,
    keyed by /-separated relative path and named by `member(path)`
    (file_digest by default). Symlinks and empty dirs are not
    represented."""
    member = member or file_digest
    entries = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            if os.path.islink(full) or not os.path.isfile(full):
                continue
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            entries[rel] = member(full)
    return {"kind": "tree", "entries": entries}


def tree_digest(root) -> str:
    """Digest of a directory's canonical tree manifest."""
    return canon_digest(tree_manifest(root))


def canon_decode(data: bytes) -> Value:
    """Inverse of canon_bytes. The encoding is prefix-free, so decoding
    is unambiguous; trailing bytes are an error."""
    data = bytes(data)
    value, end = _decode(data, 0)
    if end != len(data):
        raise CanonError("trailing bytes after canonical value")
    return value


_CONSTANTS = {b"n": None, b"t": True, b"f": False}


def _decode(buf: bytes, pos: int):
    """The value whose tag is at buf[pos], and the offset just past it.
    Each token is searched for from its own offset, so decoding is
    linear in len(buf)."""
    tag = buf[pos:pos + 1]
    if tag == b"s":
        colon = buf.find(b":", pos + 1)
        if colon < 0:
            raise CanonError("malformed string length")
        length = int(buf[pos + 1:colon])
        start = colon + 1
        end = start + length
        if length < 0 or buf[end:end + 1] != b";":
            raise CanonError("truncated string")
        return buf[start:end].decode("utf-8"), end + 1
    if tag in _CONSTANTS:
        if buf[pos + 1:pos + 2] != b";":
            raise CanonError("missing terminator")
        return _CONSTANTS[tag], pos + 2
    if tag == b"i" or tag == b"d":
        end = buf.find(b";", pos + 1)
        if end < 0:
            raise CanonError("unterminated number")
        text = buf[pos + 1:end].decode("ascii")
        return (int(text) if tag == b"i" else float(text)), end + 1
    if tag == b"l":
        pos += 1
        items = []
        while True:
            if pos >= len(buf):
                raise CanonError("unterminated list")
            if buf[pos:pos + 1] == b";":
                return items, pos + 1
            item, pos = _decode(buf, pos)
            items.append(item)
    if tag == b"m":
        pos += 1
        result = {}
        while True:
            if pos >= len(buf):
                raise CanonError("unterminated map")
            if buf[pos:pos + 1] == b";":
                return result, pos + 1
            key, pos = _decode(buf, pos)
            if not isinstance(key, str):
                raise CanonError("map key must be a string")
            result[key], pos = _decode(buf, pos)
    if not tag:
        raise CanonError("truncated canonical value")
    raise CanonError("unknown tag %r" % tag)


def _encode(value: Value, out: bytearray) -> None:
    if value is None:
        out += b"n;"
    elif value is True:
        out += b"t;"
    elif value is False:
        out += b"f;"
    elif isinstance(value, int):
        out += b"i%d;" % value
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise CanonError("non-finite float has no canonical form: %r" % value)
        # repr() is the shortest decimal string that round-trips the
        # IEEE-754 double; that makes it stable across platforms.
        out += b"d" + repr(value).encode("ascii") + b";"
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s%d:" % len(raw)
        out += raw
        out += b";"
    elif isinstance(value, (list, tuple)):
        out += b"l"
        for item in value:
            _encode(item, out)
        out += b";"
    elif isinstance(value, dict):
        out += b"m"
        try:
            keys = sorted(value.keys(), key=lambda k: k.encode("utf-8"))
        except AttributeError:
            raise CanonError("map keys must be strings") from None
        for key in keys:
            _encode(key, out)
            _encode(value[key], out)
        out += b";"
    else:
        raise CanonError("value of type %s is not encodable" % type(value).__name__)
