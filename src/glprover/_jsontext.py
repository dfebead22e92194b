"""The JSON certificates' layout, and their loader.

Every JSON certificate but a Hilbert proof has a fixed shape, so its writer
lays each value out for its place and joins the texts with ``array`` and
``obj``: models and the henkin sidecar from their documents, structured
derivations straight from the replay.  The result is the text of
``json.dumps(doc, indent=2, sort_keys=True)``; ``json.dumps`` uses its C
encoder only without ``indent``, and with it runs a pure-Python encoder
that passes each chunk up through one generator frame per nesting level.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote


def array(items: list[str], pad: str = "") -> str:
    """The JSON array of the texts ``items``, each laid out for its place,
    for an array whose own line is indented by ``pad``."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def obj(pairs: list[tuple[str, str]], pad: str = "") -> str:
    """The JSON object of the ``(key, text)`` pairs, keys in string order as
    ``sort_keys`` orders them, each text laid out for its place, for an
    object whose own line is indented by ``pad``."""
    if not pairs:
        return "{}"
    inner = "\n" + pad + "  "
    members = [f"{_quote(key)}: {text}" for key, text in sorted(pairs)]
    return "{" + inner + ("," + inner).join(members) + "\n" + pad + "}"


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
