"""Indented JSON text, written without recursion.

Models and the henkin sidecar are written by ``dumps_indented``; structured
derivations have their own writer, ``derivation.derivation_to_json``, which
lays the same text out straight from the replay.  ``json.dumps`` uses its C
encoder only without ``indent``; with it, it runs a pure-Python encoder that
passes each chunk up through one generator frame per nesting level.  This
writer keeps one explicit stack of open containers, appends every piece to
one list, and escapes strings with the standard library's C function, so it
writes the same bytes at a fraction of the cost and at any depth.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote

_int_text = int.__repr__  # as json writes an int, also for subclasses with their own repr


def dumps_indented(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` for a tree of
    str-keyed dicts, lists, str, int, bool and None; any other value raises
    TypeError.  The tree must not contain a container inside itself."""
    out: list[str] = []
    # levels[d]: the text before the first item at depth d, before each later
    # one, and after the last item of a list and of a dict at that depth
    levels = [("\n", ",\n", "\n]", "\n}")]
    # the open containers, innermost last: an iterator over (text before the
    # item, item) pairs still to write, and the container's closing text
    stack = [(iter((("", doc),)), "\n")]
    while stack:
        items, closing = stack[-1]
        for before, value in items:
            out.append(before)
            if isinstance(value, str):
                out.append(_quote(value))
            elif value is None:
                out.append("null")
            elif value is True:
                out.append("true")
            elif value is False:
                out.append("false")
            elif isinstance(value, int):
                out.append(_int_text(value))
            elif isinstance(value, (list, dict)):
                if not value:
                    out.append("[]" if isinstance(value, list) else "{}")
                    continue
                depth = len(stack)
                if depth == len(levels):
                    indent = levels[-1][0] + "  "
                    levels.append((indent, "," + indent, levels[-1][0] + "]", levels[-1][0] + "}"))
                first, later, close_list, close_dict = levels[depth]
                if isinstance(value, list):
                    out.append("[")
                    stack.append((zip(chain((first,), repeat(later)), value), close_list))
                else:
                    keys = sorted(value)
                    befores = [later + _quote(k) + ": " for k in keys]
                    befores[0] = first + _quote(keys[0]) + ": "
                    out.append("{")
                    stack.append((zip(befores, [value[k] for k in keys]), close_dict))
                break  # write the new container's items first
            else:
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        else:
            out.append(closing)
            stack.pop()
    return "".join(out)


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
