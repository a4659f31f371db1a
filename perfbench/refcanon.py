"""Canonical encoding and tree digests, written from
docs/canonical-encoding.md apart from the engine's encoder.

The benchmark recomputes every recorded digest with this module and
hashlib, so a digest the engine records is checked against a
computation that shares no code with the engine.
"""

import hashlib


def encode(value) -> bytes:
    """Canonical bytes of strings, ints, lists and string-keyed maps.

    These are the only shapes a tree manifest holds; anything else is
    refused rather than guessed at.
    """
    if isinstance(value, bool) or value is None or isinstance(value, float):
        raise TypeError("not needed for tree manifests: %r" % (value,))
    if isinstance(value, int):
        return b"i%d;" % value
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"s" + str(len(raw)).encode("ascii") + b":" + raw + b";"
    if isinstance(value, list):
        return b"l" + b"".join(encode(item) for item in value) + b";"
    if isinstance(value, dict):
        parts = [b"m"]
        for key in sorted(value, key=lambda k: k.encode("utf-8")):
            parts.append(encode(key))
            parts.append(encode(value[key]))
        parts.append(b";")
        return b"".join(parts)
    raise TypeError("unencodable: %r" % (value,))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(files: dict) -> str:
    """Digest of a directory given as {relative/path: content bytes}."""
    entries = {rel: sha256_hex(data) for rel, data in files.items()}
    return sha256_hex(encode({"kind": "tree", "entries": entries}))


def artifact_digest(content) -> str:
    """Digest of a file (bytes) or a directory ({relpath: bytes})."""
    if isinstance(content, dict):
        return tree_digest(content)
    return sha256_hex(content)
