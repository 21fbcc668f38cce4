"""Command surface: outputs and the exit-code contract: 0 success, 1 domain
rejection, 2 usage or syntax error, 3 internal engine error."""

import pytest

from znfree import factory, pregroup, tower as T, towerfile
from znfree.cli import run_command
from znfree.wordexpr import parse_word


@pytest.fixture(scope="module")
def t1_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("towers") / "t1.tower"
    towerfile.save_tower(factory.t1(), str(p))
    return str(p)


@pytest.fixture(scope="module")
def free_a_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("towers") / "free_a.tower"
    towerfile.save_tower(factory.free_tower(["a"]), str(p))
    return str(p)


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval(capsys, t1_file):
    code, out, _ = run(capsys, "eval", "-t", t1_file, "a^3*z")
    assert code == 0
    assert "length: (3,1)" in out
    assert "lambda: 1" in out


def test_eq(capsys, t1_file):
    code, out, _ = run(capsys, "eq", "-t", t1_file, "z^-1*a*z", "b")
    assert code == 0 and "equal" in out
    code, out, _ = run(capsys, "eq", "-t", t1_file, "a", "b")
    assert code == 0 and "distinct" in out


def test_com(capsys, t1_file):
    code, out, _ = run(capsys, "com", "-t", t1_file, "z*a", "z*b")
    assert code == 0 and out.strip() == "z"


def test_commutes(capsys, t1_file):
    code, out, _ = run(capsys, "commutes", "-t", t1_file, "a", "a^2")
    assert code == 0 and "commute" in out


def test_centralizer(capsys, t1_file):
    code, out, _ = run(capsys, "centralizer", "-t", t1_file, "a")
    assert code == 0 and "rank: 1" in out and "gen: a" in out


def test_reduce_gens(capsys, t1_file):
    code, out, _ = run(capsys, "reduce-gens", "-t", t1_file, "a*z", "b*z")
    assert code == 0
    assert "weight: 1" in out
    assert "step: mu" in out
    assert "witness:" in out


def test_split_level(capsys, t1_file):
    code, out, _ = run(capsys, "split-level", "-t", t1_file, "a", "b", "z")
    assert code == 0
    assert "base: a b" in out
    assert "letter: z [a -> b]" in out


def test_extend_hnn_rejection(capsys, free_a_file):
    code, out, _ = run(capsys, "extend-hnn", "-t", free_a_file,
                       "--name", "z", "--source", "a", "--target", "a^-1")
    assert code == 1
    assert "admissible-pair: conjugate-to-inverse" in out


def test_extend_hnn_success(capsys, tmp_path, free_a_file):
    out_path = str(tmp_path / "ext.tower")
    code, out, _ = run(capsys, "extend-hnn", "-t", free_a_file,
                       "--name", "z", "--source", "a", "--target", "a",
                       "-o", out_path)
    assert code == 0
    t = towerfile.load_tower(out_path)
    assert "z" in t.letters


def test_check_axioms(capsys, t1_file):
    code, out, _ = run(capsys, "check-axioms", "-t", t1_file,
                       "--samples", "100", "--seed", "7")
    assert code == 0 and "L1..L6 OK" in out


def test_verify_pregroup(capsys, t1_file):
    code, out, _ = run(capsys, "verify-pregroup", "-t", t1_file,
                       "a", "b", "z", "--samples", "30")
    assert code == 0 and "pregroup OK" in out


def test_check_axioms_violation_exit_1(capsys, t1_file, monkeypatch):
    # with the identity made to read a nonzero length, the suite's report
    # is printed on stdout and the command exits 1
    real = T.length
    monkeypatch.setattr(T, "length", lambda t, g: (
        (0, 1) if T.is_identity(g) else real(t, g)))
    code, out, err = run(capsys, "check-axioms", "-t", t1_file,
                         "--samples", "0")
    assert (code, out, err) == (
        1, "L1 g0=1 detail=identity has nonzero length\n", "")


def test_verify_pregroup_failure_exit_1(capsys, t1_file, monkeypatch):
    # with every reduced sequence one z too heavy, the failure is printed
    # on stdout and the command exits 1
    real = pregroup.reduce_psequence
    monkeypatch.setattr(pregroup, "reduce_psequence", lambda t, Z, seq: (
        pregroup.PSequence(real(t, Z, seq).items + [parse_word(t, "z")])))
    code, out, err = run(capsys, "verify-pregroup", "-t", t1_file,
                         "a", "b", "z", "--samples", "1")
    assert (code, out, err) == (
        1, "weight-not-additive: b^-1*z sum=2 weight=1\n", "")


def test_verify_pregroup_rejects_unreduced(capsys, t1_file):
    code, out, _ = run(capsys, "verify-pregroup", "-t", t1_file,
                       "a", "z", "--samples", "10")
    assert code == 1
    assert "generating-set-not-reduced" in out


def test_factories(capsys, tmp_path):
    for argv in (["surface", "-n", "2"], ["nonorientable", "-n", "3"],
                 ["abelian", "-n", "3"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and '"znfree-tower-v1"' in out


def test_factory_domain_rejection(capsys):
    code, _, err = run(capsys, "nonorientable", "-n", "2")
    assert code == 1


def test_free_product(capsys, tmp_path, t1_file, free_a_file):
    out_path = str(tmp_path / "prod.tower")
    code, out, _ = run(capsys, "free-product", t1_file, free_a_file,
                       "-o", out_path)
    assert code == 0
    t = towerfile.load_tower(out_path)
    assert "a'" in t.symbols


def test_check_basis(capsys, t1_file):
    code, out, _ = run(capsys, "check-basis", "-t", t1_file, "a", "b")
    assert code == 0 and "regular basis" in out


def test_parse_error_exit_2(capsys, t1_file):
    code, _, err = run(capsys, "eval", "-t", t1_file, "a*(")
    assert code == 2


def test_malformed_tower_file_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.tower"
    path.write_text('{"format": "znfree-tower-v1", "alphabet": ["a"], '
                    '"aliases": ["a"]}')
    code, out, err = run(capsys, "eval", "-t", str(path), "a")
    assert code == 2 and out == ""
    assert "aliases must be an object" in err


def test_bad_letter_entry_exit_2(capsys, tmp_path):
    # a malformed letter entry is a usage error naming the fault, not a
    # traceback
    path = tmp_path / "bad.tower"
    path.write_text('{"format": "znfree-tower-v1", "alphabet": ["a", "b"], '
                    '"letters": [{"source_gens": ["a"], '
                    '"target_gens": ["b"]}]}')
    code, out, err = run(capsys, "eval", "-t", str(path), "a")
    assert (code, out) == (2, "")
    assert err == "error: letter entry missing 'name'\n"


def test_rejected_letter_exit_2(capsys, tmp_path):
    # a tower file whose letter extend_hnn rejects is a bad input file,
    # named with its letter and condition on stderr, not an answer on stdout
    path = tmp_path / "rejected.tower"
    path.write_text('{"format": "znfree-tower-v1", "alphabet": ["a", "b"], '
                    '"letters": [{"name": "z", "source_gens": ["a^2"], '
                    '"target_gens": ["b^2"]}]}')
    code, out, err = run(capsys, "eval", "-t", str(path), "a")
    assert (code, out) == (2, "")
    assert err == ("error: letter 'z' rejected: "
                   "admissible-pair: proper-power\n")


def test_rejected_alphabet_exit_2(capsys, tmp_path):
    # a repeated alphabet symbol is a bad input file too, not an answer
    path = tmp_path / "duplicate.tower"
    path.write_text('{"format": "znfree-tower-v1", "alphabet": ["a", "a"], '
                    '"letters": []}')
    code, out, err = run(capsys, "eval", "-t", str(path), "a")
    assert (code, out) == (2, "")
    assert err == ("error: alphabet ['a', 'a'] rejected: "
                   "alphabet-duplicate\n")


def test_rejected_alias_exit_2(capsys, tmp_path):
    # an alias named after an alphabet symbol would never be read: the file
    # is rejected, where it used to print the symbol's own normal form
    path = tmp_path / "alias.tower"
    path.write_text('{"format": "znfree-tower-v1", "alphabet": ["a", "b"], '
                    '"letters": [], "aliases": {"a": "b"}}')
    code, out, err = run(capsys, "eval", "-t", str(path), "a")
    assert (code, out) == (2, "")
    assert err == ("error: alias 'a' rejected: "
                   "alias-name-conflict: a\n")


def test_missing_tower_exit_2(capsys):
    code, _, err = run(capsys, "eval", "-t", "/nonexistent.tower", "a")
    assert code == 2


def test_bad_subcommand_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_seed_reproducible(capsys, t1_file):
    a = run(capsys, "check-axioms", "-t", t1_file, "--samples", "50",
            "--seed", "3")
    b = run(capsys, "check-axioms", "-t", t1_file, "--samples", "50",
            "--seed", "3")
    assert a == b


def test_engine_error_is_exit_code_3(capsys, t1_file, monkeypatch):
    # a stabilization loop that hits its cap is an internal error: a one-line
    # message on stderr, no traceback
    monkeypatch.setattr(T, "_GUARD", 0)
    code, out, err = run(capsys, "eval", "-t", t1_file, "z*a")
    assert code == 3 and out == ""
    assert err.startswith("error: internal: ")
    assert "did not stabilize" in err and "Traceback" not in err
