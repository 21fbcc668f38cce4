"""Command-line surface over the engine.

Exit codes: 0 on success, 1 when a domain condition rejects the input (the
condition name is printed), 2 on usage or parse errors, 3 when the engine
fails an internal check (an EngineError: the tower is not supported).
"""

from __future__ import annotations

import argparse
import sys

from . import axioms, factory, nielsen, pregroup, towerfile
from . import tower as T
from .hnn import extend_hnn
from .tower import TowerRejection
from .towerfile import TowerFileError
from .wordexpr import WordSyntaxError, parse_word, render


class _Usage(Exception):
    pass


def _load(path):
    try:
        return towerfile.load_tower(path)
    except FileNotFoundError:
        raise _Usage(f"tower file not found: {path}")
    except TowerFileError as e:
        raise _Usage(str(e))


def _word(t, s):
    try:
        return parse_word(t, s)
    except WordSyntaxError as e:
        raise _Usage(str(e))


def _emit_tower(t, out):
    if out:
        towerfile.save_tower(t, out)
        print(f"wrote {out}")
    else:
        sys.stdout.write(towerfile.dumps(t))


def _vec(v):
    return "(" + ",".join(str(c) for c in v) + ")"


# ---------------------------------------------------------------------------
# subcommand bodies (return an exit code)


def cmd_eval(t, args):
    g = _word(t, args.expr)
    print(f"normal form: {render(t, g)}")
    print(f"length: {_vec(T.length(t, g))}")
    print(f"height: {T.height(t, g)}")
    print(f"lambda: {T.lam_len(t, g)}")
    return 0


def cmd_eq(t, args):
    a, b = _word(t, args.left), _word(t, args.right)
    print("equal" if T.equals(t, a, b) else "distinct")
    return 0


def cmd_com(t, args):
    a, b = _word(t, args.left), _word(t, args.right)
    u = T.com(t, a, b)
    print(render(t, u))
    return 0


def cmd_commutes(t, args):
    a, b = _word(t, args.left), _word(t, args.right)
    print("commute" if T.commutes(t, a, b) else "do not commute")
    return 0


def cmd_centralizer(t, args):
    g = _word(t, args.expr)
    c = T.centralizer(t, g)
    print(f"rank: {c.rank}")
    for x in c.gens:
        print(f"gen: {render(t, x)}")
    if not T.is_identity(c.conjugator):
        print(f"conjugator: {render(t, c.conjugator)}")
    return 0


def cmd_reduce_gens(t, args):
    Y = nielsen.GenSet(t, [_word(t, s) for s in args.gens])
    R = nielsen.reduce_genset(t, Y)
    for g in R.pair_reps():
        print(f"gen: {render(t, g)}")
    print(f"weight: {nielsen.lambda_weight(R)}")
    for entry in R.witness_log:
        params = " ".join(entry["params"])
        print(f"step: {entry['op']} {params}".rstrip())
        for w in entry.get("witnesses", ()):
            elem, factors = w["rendered"]
            print(f"  witness: {elem} = {' * '.join(factors)}")
    return 0


def cmd_split_level(t, args):
    Z = nielsen.GenSet(t, [_word(t, s) for s in args.gens])
    sp = pregroup.split_level(t, Z)
    print("base: " + " ".join(render(t, g) for g in sp.base_gens))
    for y, src, tgt in sp.stable_letters:
        pairs = ", ".join(f"{render(t, a)} -> {render(t, b)}"
                          for a, b in zip(src, tgt))
        print(f"letter: {render(t, y)} [{pairs}]")
    return 0


def cmd_extend_hnn(t, args):
    src = [_word(t, s) for s in args.source]
    tgt = [_word(t, s) for s in args.target]
    t2 = extend_hnn(t, args.name, src, tgt)
    print(f"extended with {args.name} (level {t2.letters[args.name].level})")
    _emit_tower(t2, args.output)
    return 0


def cmd_check_axioms(t, args):
    spec = axioms.SampleSpec(seed=args.seed, samples=args.samples,
                             lam_radius=args.radius)
    bad = axioms.check_axioms(t, spec)
    if bad:
        for line in bad:
            print(line)
        return 1
    print("L1..L6 OK")
    return 0


def cmd_verify_pregroup(t, args):
    Z = nielsen.GenSet(t, [_word(t, s) for s in args.gens])
    rep = pregroup.verify_pregroup(t, Z, args.samples, seed=args.seed)
    if rep.failures:
        for line in rep.failures:
            print(line)
        return 1
    print(f"pregroup OK ({rep.checked} samples)")
    return 0


def cmd_surface(args):
    _emit_tower(factory.surface_orientable(args.genus), args.output)
    return 0


def cmd_nonorientable(args):
    _emit_tower(factory.surface_nonorientable(args.n), args.output)
    return 0


def cmd_abelian(args):
    _emit_tower(factory.free_abelian(args.n), args.output)
    return 0


def cmd_free_product(args):
    ta = _load(args.towers[0])
    tb = _load(args.towers[1])
    _emit_tower(factory.free_product(ta, tb), args.output)
    return 0


def cmd_check_basis(t, args):
    elems = [_word(t, s) for s in args.gens]
    ok = factory.check_regular_basis(t, elems)
    print("regular basis" if ok else "not a regular basis")
    return 0


# ---------------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="znfree",
        description="Symbolic computation in HNN towers with Z^n lengths")
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, help_, run):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(run=run)
        return sp

    def tower_cmd(name, help_, run):
        sp = cmd(name, help_, lambda args: run(_load(args.tower), args))
        sp.add_argument("-t", "--tower", required=True,
                        help="tower file (JSON)")
        return sp

    sp = tower_cmd("eval", "normal form, length, height, lambda", cmd_eval)
    sp.add_argument("expr")

    sp = tower_cmd("eq", "test equality of two expressions", cmd_eq)
    sp.add_argument("left")
    sp.add_argument("right")

    sp = tower_cmd("com", "longest common head of two elements", cmd_com)
    sp.add_argument("left")
    sp.add_argument("right")

    sp = tower_cmd("commutes", "test whether two elements commute",
                   cmd_commutes)
    sp.add_argument("left")
    sp.add_argument("right")

    sp = tower_cmd("centralizer", "centralizer of an element", cmd_centralizer)
    sp.add_argument("expr")

    sp = tower_cmd("reduce-gens", "reduce a generating set with witnesses",
                   cmd_reduce_gens)
    sp.add_argument("gens", nargs="+")

    sp = tower_cmd("split-level", "split the top HNN layer of a reduced set",
                   cmd_split_level)
    sp.add_argument("gens", nargs="+")

    sp = tower_cmd("extend-hnn", "adjoin a stable letter", cmd_extend_hnn)
    sp.add_argument("--name", required=True)
    sp.add_argument("--source", action="append", required=True)
    sp.add_argument("--target", action="append", required=True)
    sp.add_argument("-o", "--output")

    sp = tower_cmd("check-axioms", "sampled length-function axiom suite",
                   cmd_check_axioms)
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--radius", type=int, default=4)

    sp = tower_cmd("verify-pregroup", "sampled piece-arithmetic checks",
                   cmd_verify_pregroup)
    sp.add_argument("gens", nargs="+")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)

    sp = cmd("surface", "orientable surface tower", cmd_surface)
    sp.add_argument("-n", "--genus", type=int, required=True)
    sp.add_argument("-o", "--output")

    sp = cmd("nonorientable", "nonorientable surface tower", cmd_nonorientable)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-o", "--output")

    sp = cmd("abelian", "free abelian tower", cmd_abelian)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-o", "--output")

    sp = cmd("free-product", "free product of two towers", cmd_free_product)
    sp.add_argument("towers", nargs=2, help="two tower files")
    sp.add_argument("-o", "--output")

    sp = tower_cmd("check-basis", "regular-basis test for a list of elements",
                   cmd_check_basis)
    sp.add_argument("gens", nargs="+")

    return p


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.run(args)
    except _Usage as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except TowerRejection as e:
        print(str(e))
        return 1
    except T.EngineError as e:
        print(f"error: internal: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
