"""The JSON certificates' text, and their loader.

Every JSON certificate but a Hilbert proof is written as compact canonical
JSON: ``dumps(doc) + "\\n"``, keys sorted, no whitespace.  Models and the
henkin sidecar encode their documents with ``dumps``, whose encoder is built
once rather than per call; structured derivations are written straight from
the replay, in the same text.  The loaders read any layout.
"""

from __future__ import annotations

import json

dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def loads(text: str):
    """The value of a JSON text; ValueError("invalid JSON: ...") if the text
    is malformed or nested too deeply for ``json.loads``, which recurses."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from None


def is_natural(v) -> bool:
    """Is the JSON value ``v`` a natural number?"""
    return type(v) is int and v >= 0  # not a bool, although bool subclasses int
