"""JSON serialization of towers.

Format "znfree-tower-v1": a UTF-8 JSON object with the base alphabet, the
stable letters in construction order (axes given as word expressions over
the already-built part), and optional aliases.  Unknown keys anywhere are
rejected so that fixtures fail loudly instead of drifting.
"""

from __future__ import annotations

import json

from .hnn import extend_hnn
from .tower import GroupTower, TowerRejection, base_tower
from .wordexpr import IDENT, WordSyntaxError, parse_word, render

FORMAT = "znfree-tower-v1"


class TowerFileError(ValueError):
    """Malformed tower document (syntax, schema, or unknown keys), or an
    alphabet, a letter or an alias that the tower rejects."""


_TOP_KEYS = {"format", "alphabet", "letters", "aliases"}
_LETTER_KEYS = {"name", "source_gens", "target_gens"}


def _check_keys(obj, allowed, where):
    extra = set(obj) - allowed
    if extra:
        raise TowerFileError(f"unknown key(s) in {where}: "
                             f"{', '.join(sorted(extra))}")


def to_dict(t: GroupTower) -> dict:
    letters = []
    for sl in t.letters_by_level():
        letters.append({
            "name": sl.name,
            "source_gens": [render(t, g) for g in sl.source_gens],
            "target_gens": [render(t, g) for g in sl.target_gens],
        })
    doc = {"format": FORMAT,
           "alphabet": list(t.symbols),
           "letters": letters}
    if t.aliases:
        doc["aliases"] = {k: render(t, v) for k, v in t.aliases.items()}
    return doc


def _strings(value, what):
    if (not isinstance(value, list)
            or not all(isinstance(s, str) for s in value)):
        raise TowerFileError(f"{what} must be a list of strings")
    return value


def _words(t, value, what):
    """The list of word expressions value, parsed over t."""
    try:
        return [parse_word(t, s) for s in _strings(value, what)]
    except WordSyntaxError as e:
        raise TowerFileError(f"{what}: {e}")


def _name(value, what):
    if not isinstance(value, str) or not IDENT.fullmatch(value):
        raise TowerFileError(f"{what} must be an identifier, not {value!r}")
    return value


def from_dict(doc) -> GroupTower:
    if not isinstance(doc, dict):
        raise TowerFileError("document must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "tower document")
    if doc.get("format") != FORMAT:
        raise TowerFileError(f"format must be {FORMAT!r}")
    alphabet = _strings(doc.get("alphabet"), "alphabet")
    try:
        t = base_tower([_name(s, "alphabet symbol") for s in alphabet])
    except TowerRejection as e:
        raise TowerFileError(f"alphabet {alphabet!r} rejected: {e}")
    letters = doc.get("letters", [])
    if not isinstance(letters, list):
        raise TowerFileError("letters must be a list")
    for entry in letters:
        if not isinstance(entry, dict):
            raise TowerFileError("letter entries must be objects")
        _check_keys(entry, _LETTER_KEYS, f"letter {entry.get('name')!r}")
        for key in sorted(_LETTER_KEYS):
            if key not in entry:
                raise TowerFileError(f"letter entry missing {key!r}")
        name = _name(entry["name"], "letter name")
        src, tgt = (_words(t, entry[key], f"letter {name!r} {key}")
                    for key in ("source_gens", "target_gens"))
        try:
            t = extend_hnn(t, name, src, tgt, auto_rotate=False)
        except TowerRejection as e:
            raise TowerFileError(f"letter {name!r} rejected: {e}")
    aliases = doc.get("aliases", {})
    if not isinstance(aliases, dict):
        raise TowerFileError("aliases must be an object")
    for k, v in aliases.items():
        _name(k, "alias name")
        if not isinstance(v, str):
            raise TowerFileError(f"alias {k!r} must be a string")
    if aliases:
        parsed = {k: _words(t, [v], f"alias {k!r}")[0]
                  for k, v in aliases.items()}
        try:
            t = GroupTower(t.symbols, t.letters.values(), parsed)
        except TowerRejection as e:
            raise TowerFileError(f"alias {e.detail!r} rejected: {e}")
    return t


def dumps(t: GroupTower) -> str:
    return json.dumps(to_dict(t), indent=2) + "\n"


def loads(text: str) -> GroupTower:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise TowerFileError(f"invalid JSON: {e}")
    return from_dict(doc)


def save_tower(t: GroupTower, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(t))


def load_tower(path: str) -> GroupTower:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
