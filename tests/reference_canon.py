"""Independent implementation of the canonical encoding.

Written from docs/canonical-encoding.md without looking at the engine's
encoder. Notably the float rendering is derived from the documented
"shortest round-tripping decimal" rule via %e probing rather than
repr(), so agreement between the two is evidence the rule is actually
pinned down by the document.
"""

import math
from fractions import Fraction

from reference_sha256 import sha256_hex


def _shortest_digits(a: float) -> tuple[str, int]:
    """Significant digits and decimal exponent of the shortest decimal
    that round-trips the positive double `a`.

    The correctly rounded %e string at a precision need not round-trip
    while a neighbour in its last digit does (2**-24 renders as
    ...063e-08, not the rounded ...062e-08), so both neighbours are
    candidates too. Of the candidates that round-trip, the one closest
    to `a` wins, ties going to the even last digit."""
    for precision in range(1, 18):
        mantissa, _, exp_text = ("%.*e" % (precision - 1, a)).partition("e")
        scale = int(exp_text) - (precision - 1)  # a candidate is n * 10**scale
        nearest = int(mantissa.replace(".", ""))
        fits = [n for n in (nearest - 1, nearest, nearest + 1)
                if n > 0 and float("%de%d" % (n, scale)) == a]
        if fits:
            best = min(fits, key=lambda n: (
                abs(Fraction(n) * Fraction(10) ** scale - Fraction(a)), n % 2))
            text = str(best)
            return text.rstrip("0"), scale + len(text) - 1
    raise ValueError("no round-tripping decimal for %r" % a)


def ref_render_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError("non-finite float")
    if v == 0.0:
        return "-0.0" if math.copysign(1.0, v) < 0 else "0.0"

    negative = v < 0
    digits, exp = _shortest_digits(abs(v))

    if -4 <= exp < 16:
        if exp >= len(digits) - 1:
            body = digits + "0" * (exp - len(digits) + 1) + ".0"
        elif exp >= 0:
            body = digits[:exp + 1] + "." + digits[exp + 1:]
        else:
            body = "0." + "0" * (-exp - 1) + digits
    else:
        head = digits[0]
        if len(digits) > 1:
            head += "." + digits[1:]
        body = head + "e%+03d" % exp

    return "-" + body if negative else body


def ref_canon(value) -> bytes:
    if value is None:
        return b"n;"
    if value is True:
        return b"t;"
    if value is False:
        return b"f;"
    if isinstance(value, int):
        return b"i" + str(value).encode() + b";"
    if isinstance(value, float):
        return b"d" + ref_render_float(value).encode() + b";"
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"s" + str(len(raw)).encode() + b":" + raw + b";"
    if isinstance(value, (list, tuple)):
        return b"l" + b"".join(ref_canon(item) for item in value) + b";"
    if isinstance(value, dict):
        pieces = [b"m"]
        for key in sorted(value, key=lambda k: k.encode("utf-8")):
            pieces.append(ref_canon(key))
            pieces.append(ref_canon(value[key]))
        pieces.append(b";")
        return b"".join(pieces)
    raise ValueError("unencodable type: %r" % type(value))


def ref_canon_digest(value) -> str:
    return sha256_hex(ref_canon(value))


def ref_task_fingerprint(argv, env_hex, inputs, outputs) -> str:
    """Fingerprint from already-rendered binding/declaration lists.

    inputs: {port: ["file"|"dir", digest] or ["value", literal]}
    outputs: {port: [type_string] or [type_string, path]}
    """
    preimage = {
        "schema": "flowforge-task-v1",
        "argv": list(argv),
        "env": env_hex,
        "inputs": inputs,
        "outputs": outputs,
    }
    return ref_canon_digest(preimage)
