"""JSON tower documents: round-trips and strict schema."""

import pytest

from znfree import axioms, factory, towerfile as TF
from znfree.tower import TowerRejection


def test_roundtrip_all_factory_towers(all_towers):
    for name, t in all_towers.items():
        text = TF.dumps(t)
        t2 = TF.loads(text)
        assert TF.dumps(t2) == text, name
        assert sorted(t2.letters) == sorted(t.letters)
        assert sorted(t2.aliases) == sorted(t.aliases)
        bad = axioms.check_axioms(t2, axioms.SampleSpec(samples=50))
        assert bad == [], name


def test_alias_survives_roundtrip(ns3, t1):
    # ns3's x1, and the aliases free_product keeps or renames (x1, x1')
    for t, names in ((ns3, {"x1"}), (factory.free_product(ns3, ns3),
                                     {"x1", "x1'"}),
                     (factory.free_product(t1, ns3), {"x1"})):
        t2 = TF.loads(TF.dumps(t))
        assert set(t2.aliases) == names


def test_rejects_bad_format():
    with pytest.raises(TF.TowerFileError):
        TF.loads('{"format": "something-else", "alphabet": ["a"]}')


def test_rejects_unknown_keys():
    with pytest.raises(TF.TowerFileError, match="unknown key"):
        TF.loads('{"format": "znfree-tower-v1", "alphabet": ["a"], '
                 '"extra": 1}')
    with pytest.raises(TF.TowerFileError, match="unknown key"):
        TF.loads('{"format": "znfree-tower-v1", "alphabet": ["a", "b"], '
                 '"letters": [{"name": "z", "source_gens": ["a"], '
                 '"target_gens": ["b"], "color": "red"}]}')


def test_rejects_invalid_json():
    with pytest.raises(TF.TowerFileError, match="invalid JSON"):
        TF.loads("{nope")


def test_rejects_bad_alphabet():
    with pytest.raises(TF.TowerFileError):
        TF.loads('{"format": "znfree-tower-v1", "alphabet": "ab"}')


def test_rejects_repeated_alphabet_symbol():
    # the tower's own rejection, named with the alphabet it came from
    with pytest.raises(TF.TowerFileError) as ei:
        TF.loads('{"format": "znfree-tower-v1", "alphabet": ["a", "b", "a"]}')
    assert str(ei.value) == ("alphabet ['a', 'b', 'a'] rejected: "
                             "alphabet-duplicate")
    assert isinstance(ei.value.__context__, TowerRejection)


@pytest.mark.parametrize("name", ["a", "z"])
def test_rejects_alias_named_after_a_symbol_or_letter(name):
    # symbols and letters are read before aliases, so such an alias would
    # never be read
    with pytest.raises(TF.TowerFileError) as ei:
        TF.loads('{"format": "znfree-tower-v1", "alphabet": ["a", "b"], '
                 '"letters": [{"name": "z", "source_gens": ["a"], '
                 '"target_gens": ["b"]}], '
                 f'"aliases": {{"{name}": "b"}}}}')
    assert str(ei.value) == (f"alias {name!r} rejected: "
                             f"alias-name-conflict: {name}")
    assert isinstance(ei.value.__context__, TowerRejection)


_LETTERS = '"format": "znfree-tower-v1", "alphabet": ["a", "b"], "letters": '


@pytest.mark.parametrize("text, message", [
    ('["znfree-tower-v1"]', "document must be a JSON object"),
    ("{" + _LETTERS + '["z"]}', "letter entries must be objects"),
    ("{" + _LETTERS + '[{"name": "z", "source_gens": ["a"]}]}',
     "letter entry missing 'target_gens'"),
    ("{" + _LETTERS + '[], "aliases": ["a"]}', "aliases must be an object"),
])
def test_rejects_schema_errors(text, message):
    with pytest.raises(TF.TowerFileError) as ei:
        TF.loads(text)
    assert str(ei.value) == message


_Z = '"name": "z", "source_gens": ["a"], "target_gens": ["b"]'


@pytest.mark.parametrize("text, message", [
    ("{" + _LETTERS + '[{"source_gens": ["a"], "target_gens": ["b"]}]}',
     "letter entry missing 'name'"),
    ("{" + _LETTERS + '[{"name": "z", "source_gens": [1], '
     '"target_gens": ["b"]}]}',
     "letter 'z' source_gens must be a list of strings"),
    ("{" + _LETTERS + '[{' + _Z + '}], "aliases": {"y": 2}}',
     "alias 'y' must be a string"),
    ("{" + _LETTERS + '[{"name": "z", "source_gens": ["a"], '
     '"target_gens": "ab"}]}',
     "letter 'z' target_gens must be a list of strings"),
    ("{" + _LETTERS + '[{"name": 7, "source_gens": ["a"], '
     '"target_gens": ["b"]}]}',
     "letter name must be an identifier, not 7"),
    ("{" + _LETTERS + '[{"name": "7", "source_gens": ["a"], '
     '"target_gens": ["b"]}]}',
     "letter name must be an identifier, not '7'"),
    ('{"format": "znfree-tower-v1", "alphabet": ["a", "b c"]}',
     "alphabet symbol must be an identifier, not 'b c'"),
    ("{" + _LETTERS + '[{' + _Z + '}], "aliases": {"1": "a"}}',
     "alias name must be an identifier, not '1'"),
    ("{" + _LETTERS + '{"z": 1}}', "letters must be a list"),
    ("{" + _LETTERS + '[{"name": "z", "source_gens": ["a*("], '
     '"target_gens": ["b"]}]}',
     "letter 'z' source_gens: unexpected end of input (at position 3)"),
    ("{" + _LETTERS + '[{' + _Z + '}], "aliases": {"y": "q"}}',
     "alias 'y': unknown symbol 'q' (at position 0)"),
], ids=["missing-name", "generator-not-string", "alias-not-string",
        "generators-as-string", "name-a-number", "name-not-identifier",
        "symbol-not-identifier", "alias-name-not-identifier",
        "letters-not-list", "generator-syntax", "alias-syntax"])
def test_rejects_bad_values(text, message):
    with pytest.raises(TF.TowerFileError) as ei:
        TF.loads(text)
    assert str(ei.value) == message


def test_save_load(tmp_path, t1):
    path = tmp_path / "t1.tower"
    TF.save_tower(t1, str(path))
    t2 = TF.load_tower(str(path))
    assert TF.dumps(t2) == TF.dumps(t1)
