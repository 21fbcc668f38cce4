"""Word-expression grammar shared by the CLI and reports.

    word := term { ("*" | juxtaposition) term }
    term := atom [ "^" int ]
    atom := ident | "(" word ")" | "1"

"1" denotes the identity; negative exponents denote inverses.  Rendering is
canonical (letters with collapsed powers, block factorizations with offsets
materialized as explicit period powers) and round-trips through the parser
bit-exactly.
"""

from __future__ import annotations

import re

from . import tower as T
from .tower import Elem, GroupTower


class WordSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")  # a generator's name
_TOKEN = re.compile(rf"\s*(?:(?P<ident>{IDENT.pattern})"
                    r"|(?P<int>-?\d+)|(?P<op>[*^()]))")


def _tokenize(s: str):
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m or m.end() == m.start():
            rest = s[pos:].lstrip()
            if rest:  # name the character, not the blanks before it
                bad = len(s) - len(rest)
                raise WordSyntaxError(f"unexpected character {s[bad]!r}", bad)
            break
        if m.group("ident"):
            out.append(("ident", m.group("ident"), m.start("ident")))
        elif m.group("int"):
            out.append(("int", int(m.group("int")), m.start("int")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return out


_POWER_CAP = 10**6


class _Parser:
    def __init__(self, t: GroupTower, tokens, text):
        self.t = t
        self.toks = tokens
        self.i = 0
        self.text = text

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def word(self) -> Elem:
        out = self.term()
        while True:
            nxt = self.peek()
            if nxt is None or (nxt[0] == "op" and nxt[1] == ")"):
                return out
            if nxt[0] == "op" and nxt[1] == "*":
                self.i += 1
            out = T.multiply(self.t, out, self.term())

    def term(self) -> Elem:
        base = self.atom()
        nxt = self.peek()
        if nxt is not None and nxt[0] == "op" and nxt[1] == "^":
            self.i += 1
            ex = self.peek()
            if ex is None or ex[0] != "int":
                pos = ex[2] if ex else len(self.text)
                raise WordSyntaxError("exponent must be an integer", pos)
            self.i += 1
            if abs(ex[1]) > _POWER_CAP:
                raise WordSyntaxError("exponent too large", ex[2])
            return T.pow_elem(self.t, base, ex[1])
        return base

    def atom(self) -> Elem:
        nxt = self.peek()
        if nxt is None:
            raise WordSyntaxError("unexpected end of input", len(self.text))
        kind, val, pos = nxt
        if kind == "ident":
            self.i += 1
            try:
                return T.gen_elem(self.t, val)
            except T.TowerError:
                raise WordSyntaxError(f"unknown symbol {val!r}", pos) from None
        if kind == "int" and val == 1:
            self.i += 1
            return T.EPS
        if kind == "op" and val == "(":
            self.i += 1
            inner = self.word()
            close = self.peek()
            if close is None or close[1] != ")":
                raise WordSyntaxError("missing ')'", pos)
            self.i += 1
            return inner
        raise WordSyntaxError(f"unexpected token {val!r}", pos)


def parse_word(t: GroupTower, s: str) -> Elem:
    tokens = _tokenize(s)
    if not tokens:
        raise WordSyntaxError("empty expression", 0)
    p = _Parser(t, tokens, s)
    out = p.word()
    if p.i != len(tokens):
        raise WordSyntaxError("trailing input", tokens[p.i][2])
    return out


# ---------------------------------------------------------------------------
# rendering


def _render_word(t: GroupTower, word) -> str:
    if not word:
        return "1"
    runs = []
    for k in word:
        sym = t.symbols[abs(k) - 1]
        sign = 1 if k > 0 else -1
        if runs and runs[-1][0] == sym and runs[-1][1] == sign:
            runs[-1][2] += 1
        else:
            runs.append([sym, sign, 1])
    out = []
    for sym, sign, n in runs:
        e = sign * n
        out.append(sym if e == 1 else f"{sym}^{e}")
    return "*".join(out)


def render(t: GroupTower, g: Elem) -> str:
    """Canonical textual form; parse_word(t, render(t, g)) rebuilds g."""
    if g.level == 1:
        return _render_word(t, g.word)
    out = []
    for p in g.parts:
        if isinstance(p, T.Block):
            out.append(p.letter if p.sign > 0 else f"{p.letter}^-1")
            pers = T._side(t, p).right
            for ci in range(len(pers) - 1, -1, -1):
                d = p.offset[ci]
                if not d:
                    continue
                ps = render(t, pers[ci])
                body = ps if "*" not in ps and "^" not in ps else f"({ps})"
                out.append(body if d == 1 else f"{body}^{d}")
        elif not T.is_identity(p):
            out.append(render(t, p))
    return "*".join(out) if out else "1"
