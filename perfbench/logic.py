"""The benchmark's own modal logic: formulas, concrete syntax, and a
certificate checker that shares no code with glprover's evaluator.

Formulas are nested tuples: ("False",), ("True",), ("atom", name),
("not", a), ("box", a), and (op, a, b) for op in and/or/imp/iff.  The
evaluator is bit-sliced: bit ``v * n + w`` stands for world ``w`` under
valuation ``v``, so one pass over a formula evaluates it at every world under
every valuation at once.  A single model is the case of one valuation.
"""

from __future__ import annotations

import itertools
import re

FALSE, TRUE = ("False",), ("True",)
BINARY = {"and": "&&", "or": "||", "imp": "-->", "iff": "<->"}

# A001035: labelled strict partial orders, i.e. ITF frames, on n worlds.
ITF_FRAME_COUNTS = (1, 1, 3, 19, 219, 4231)


def atom(name):
    return ("atom", name)


def neg(a):
    return ("not", a)


def box(a):
    return ("box", a)


def diam(a):
    return neg(box(neg(a)))


def imp(a, b):
    return ("imp", a, b)


def conj(parts):
    """Right-nested conjunction, as the concrete syntax groups ``a && b && c``."""
    parts = list(parts)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = ("and", p, out)
    return out


def disj(parts):
    parts = list(parts)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = ("or", p, out)
    return out


def boxes(k, a):
    for _ in range(k):
        a = box(a)
    return a


def render(f) -> str:
    """Concrete syntax with every binary connective parenthesized."""
    tag = f[0]
    if tag in ("False", "True"):
        return tag
    if tag == "atom":
        return f[1]
    if tag in ("not", "box"):
        return ("Not " if tag == "not" else "Box ") + render(f[1])
    return f"({render(f[1])} {BINARY[tag]} {render(f[2])})"


def subformulas(f) -> set:
    out = {f}
    for child in f[1:]:
        if isinstance(child, tuple):
            out |= subformulas(child)
    return out


def atoms(f) -> list[str]:
    return sorted({g[1] for g in subformulas(f) if g[0] == "atom"})


# --- concrete syntax ----------------------------------------------------------
# Prefix Not/Box/Diam bind tightest, then && and || (right-nested), then -->
# (right associative), then <-> (non-associative).

_TOKEN = re.compile(r"\s*(\(|\)|&&|\|\||-->|<->|[A-Za-z][A-Za-z0-9_']*)")


def parse(text: str):
    tokens, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad token at {pos} in {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    i = 0

    def peek():
        return tokens[i]

    def take(expected=None):
        nonlocal i
        tok = tokens[i]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r} in {text!r}")
        i += 1
        return tok

    def prefix():
        tok = take()
        if tok == "Not":
            return neg(prefix())
        if tok == "Box":
            return box(prefix())
        if tok == "Diam":
            return diam(prefix())
        if tok == "(":
            inner = iff()
            take(")")
            return inner
        if tok in ("False", "True"):
            return (tok,)
        if tok and tok[0].isalpha():
            return atom(tok)
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    def chain(sub, op, tag):
        left = sub()
        if peek() == op:
            take()
            return (tag, left, chain(sub, op, tag))
        return left

    def conj_level():
        return chain(prefix, "&&", "and")

    def disj_level():
        return chain(conj_level, "||", "or")

    def imp_level():
        return chain(disj_level, "-->", "imp")

    def iff():
        left = imp_level()
        if peek() == "<->":
            take()
            return ("iff", left, imp_level())
        return left

    f = iff()
    take("")
    return f


# --- bit-sliced forcing --------------------------------------------------------

class Slices:
    """Bit layout for ``n`` worlds under every valuation of ``names`` (or the
    single valuation ``fixed`` when it is given: atom name -> world set)."""

    def __init__(self, n, names, fixed=None):
        self.n = n
        vals = 1 if fixed is not None else 2 ** (len(names) * n)
        self.full = (1 << (vals * n)) - 1
        self.world = [sum(1 << (v * n + w) for v in range(vals)) for w in range(n)]
        self.atom = {}
        for i, a in enumerate(names):
            bits = 0
            for v in range(vals):
                for w in range(n):
                    true = w in fixed.get(a, ()) if fixed is not None else v >> (i * n + w) & 1
                    if true:
                        bits |= 1 << (v * n + w)
            self.atom[a] = bits


def truth_masks(f, succ, sl: Slices, memo=None) -> dict:
    """Map every subformula of ``f`` to the bits where it is forced;
    ``succ[w]`` lists the successors of world ``w``."""
    memo = {} if memo is None else memo

    def ev(g):
        if g in memo:
            return memo[g]
        tag = g[0]
        if tag == "False":
            r = 0
        elif tag == "True":
            r = sl.full
        elif tag == "atom":
            r = sl.atom.get(g[1], 0)
        elif tag == "not":
            r = sl.full & ~ev(g[1])
        elif tag == "box":
            a, r = ev(g[1]), 0
            for w in range(sl.n):
                here = sl.world[w]
                for u in succ[w]:
                    at_u = a & sl.world[u]
                    here &= at_u >> (u - w) if u > w else at_u << (w - u)
                r |= here
        else:
            a, b = ev(g[1]), ev(g[2])
            r = {"and": a & b, "or": a | b,
                 "imp": (sl.full & ~a) | b, "iff": sl.full & ~(a ^ b)}[tag]
        memo[g] = r
        return r

    ev(f)
    return memo


def is_itf(n, rel) -> bool:
    """Irreflexive and transitive, on worlds 0..n-1."""
    rel = set(rel)
    if any(x == y or not (0 <= x < n and 0 <= y < n) for x, y in rel):
        return False
    return all((x, z) in rel for x, y in rel for y2, z in rel if y == y2)


def itf_frames(n):
    """Every ITF relation on worlds 0..n-1."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = [p for p, keep in zip(pairs, bits) if keep]
        if is_itf(n, rel):
            yield rel


def successors(n, rel):
    succ = [[] for _ in range(n)]
    for x, y in rel:
        succ[x].append(y)
    return succ


def valid_up_to(f, max_worlds) -> bool:
    """Forced at every world of every ITF frame with at most ``max_worlds``
    worlds, under every valuation."""
    names = atoms(f)
    for n in range(1, max_worlds + 1):
        sl = Slices(n, names)
        for rel in itf_frames(n):
            if truth_masks(f, successors(n, rel), sl)[f] != sl.full:
                return False
    return True


def read_model(doc):
    """(n, rel, slices) from a model document, worlds renumbered 0..n-1 in
    ascending order; raises ValueError when the frame is not ITF."""
    worlds = sorted(doc["worlds"])
    index = {w: i for i, w in enumerate(worlds)}
    rel = [(index[x], index[y]) for x, y in doc["rel"]]
    if not is_itf(len(worlds), rel):
        raise ValueError("frame is not irreflexive and transitive")
    fixed = {a: {index[w] for w in ws} for a, ws in doc.get("val", {}).items()}
    return index, successors(len(worlds), rel), Slices(len(worlds), sorted(fixed), fixed)


def falsifies(doc, f) -> bool:
    """Is the model document ITF, with ``f`` false at its ``falsifiedAt``?"""
    index, succ, sl = read_model(doc)
    world = index[doc["falsifiedAt"]]
    return not truth_masks(f, succ, sl)[f] >> world & 1
