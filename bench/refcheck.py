"""Stored references for every pool operation, and the comparison.

A reference keeps an operation's exit code and its ``--format json`` run
record in two forms:

- ``text_sha``: the digest of the record text with the timestamps and the
  version block masked; equal text is equal output;
- ``skeleton_sha`` and ``floats``: the record parsed, the masked keys
  dropped, every finite float replaced by a placeholder and listed in
  order, and non-finite floats spelled as strings.  JSON ``Infinity``
  therefore compares equal to the string ``"inf"``.  Exact and string
  results compare by digest, floats at 1e-12 relative.

An operation fails when it crashes, when its exit code differs from the
reference, or when its record differs from the reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

REL_TOL = 1e-12
MASKED_KEYS = ("started_at", "finished_at", "versions")

_MASK_RE = re.compile(
    r'"(started_at|finished_at)": "[^"]*"|"versions": \{[^{}]*\}'
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def masked_text_sha(text: str) -> str:
    return _sha(_MASK_RE.sub(lambda m: f'"{m.group(1) or "versions"}": null', text))


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def is_strict_json(text: str) -> bool:
    """True when the text parses without NaN or Infinity literals."""
    try:
        json.loads(text, parse_constant=_reject_constant)
    except ValueError:
        return False
    return True


def _nonfinite(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"


def canonical(record: dict) -> tuple[str, list[float]]:
    """(digest of everything but finite floats, the finite floats in order)."""
    floats: list[float] = []

    def walk(node):
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v) for v in node]
        if isinstance(node, float):
            if not math.isfinite(node):
                return _nonfinite(node)
            floats.append(node)
            return "<float>"
        return node

    body = {k: v for k, v in record.items() if k not in MASKED_KEYS}
    skeleton = json.dumps(walk(body), sort_keys=True, separators=(",", ":"))
    return _sha(skeleton), floats


def make_reference(exit_code: int, text: str) -> dict:
    skeleton_sha, floats = canonical(json.loads(text))
    return {
        "exit": exit_code,
        "text_sha": masked_text_sha(text),
        "skeleton_sha": skeleton_sha,
        "floats": floats,
        "strict_json": is_strict_json(text),
    }


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def mismatch(ref: dict, exit_code: int, text: str) -> str | None:
    """None when the output matches the reference, else the reason."""
    if exit_code != ref["exit"]:
        return f"exit code {exit_code}, reference {ref['exit']}"
    if masked_text_sha(text) == ref["text_sha"]:
        return None
    try:
        skeleton_sha, floats = canonical(json.loads(text))
    except ValueError as exc:
        return f"output is not a run record: {exc}"
    if skeleton_sha != ref["skeleton_sha"]:
        return "exact or string results differ"
    if len(floats) != len(ref["floats"]):
        return "number of float results differs"
    for i, (got, want) in enumerate(zip(floats, ref["floats"])):
        if not _close(got, want):
            return f"float result {i} is {got!r}, reference {want!r}"
    return None
