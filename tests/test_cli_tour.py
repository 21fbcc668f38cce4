"""A frozen tour of the command surface: one digest over the argv, exit
code, stdout and stderr of a fixed list of commands on factory tower files.

A change that keeps every answer the CLI gives keeps the digest.  The tour
holds no input whose answer a known defect decides, such as the w tower or
the surf2 pair that `equals` calls distinct (ROADMAP items 4 and 15), so
that mending one does not move the digest.  argparse's own help and usage
text is left out: its layout follows the Python version.
"""

import hashlib

from znfree import factory, towerfile
from znfree.cli import run_command

TOWERS = {
    "t1": factory.t1,
    "t_ab": factory.t_ab,
    "fa3": lambda: factory.free_abelian(3),
    "fa4": lambda: factory.free_abelian(4),
    "surf2": lambda: factory.surface_orientable(2),
    "ns3": lambda: factory.surface_nonorientable(3),
    "fp": lambda: factory.free_product(factory.free_abelian(3),
                                       factory.t1()),
    "free_a": lambda: factory.free_tower(["a"]),
}

# "@name" is the file of TOWERS[name], "@out/x" a file in the output folder
TOUR = [
    ["eval", "-t", "@t1", "a^3*z"],
    ["eval", "-t", "@t1", "z^-1*a*z*b^-1"],
    ["eval", "-t", "@t_ab", "z*a^-2*z^-1*a"],
    ["eval", "-t", "@fa3", "z3*a*z2^-1*z3^-1*a"],
    ["eval", "-t", "@fa4", "z4*z3^-1*a*z2*z4^-1"],
    ["eval", "-t", "@surf2", "x1*x2*x3*x1^-1*x4"],
    ["eval", "-t", "@ns3", "x1*x2*x1^-1*x3"],
    ["eval", "-t", "@fp", "z*a'*z3*b^-1*z2"],
    ["eval", "-t", "@t1", "a*("],
    ["eval", "-t", "@t1", "q"],
    ["eq", "-t", "@t1", "z^-1*a*z", "b"],
    ["eq", "-t", "@fa3", "z3*a*z3^-1", "a"],
    ["eq", "-t", "@surf2", "x1*x2", "x2*x1"],
    ["com", "-t", "@t1", "z*a", "z*b"],
    ["com", "-t", "@fa3", "z3*a*z2*z3", "z3*a*z2^-1"],
    ["com", "-t", "@surf2", "x1*x2*x3", "x1*x2*x4"],
    ["com", "-t", "@ns3", "x1r*x2*x1r", "x1r*x3"],
    ["commutes", "-t", "@t_ab", "z*a", "a"],
    ["commutes", "-t", "@fa3", "z2", "z3"],
    ["commutes", "-t", "@surf2", "x1", "x2"],
    ["centralizer", "-t", "@t1", "a"],
    ["centralizer", "-t", "@t1", "z*a*z"],
    ["centralizer", "-t", "@t_ab", "z*a"],
    ["centralizer", "-t", "@fa3", "z3*a"],
    ["centralizer", "-t", "@fa3", "a*z3*a^-1"],
    ["centralizer", "-t", "@surf2", "x1*x2"],
    ["centralizer", "-t", "@ns3", "x1r*x3"],
    ["centralizer", "-t", "@fp", "z*a'*z3"],
    ["centralizer", "-t", "@t1", "1"],
    ["reduce-gens", "-t", "@t1", "a*z", "b*z"],
    ["reduce-gens", "-t", "@t_ab", "z*a", "a^2"],
    ["split-level", "-t", "@t1", "a", "b", "z"],
    ["extend-hnn", "-t", "@free_a", "--name", "z", "--source", "a",
     "--target", "a^-1"],
    ["extend-hnn", "-t", "@free_a", "--name", "z", "--source", "a",
     "--target", "a"],
    ["extend-hnn", "-t", "@surf2", "--name", "w", "--source", "x1*x2",
     "--target", "x1*x2", "-o", "@out/w.tower"],
    ["eval", "-t", "@out/w.tower", "w*x1*x2*w^-1*x3"],
    ["extend-hnn", "-t", "@t1", "--name", "w", "--source", "z*a*z",
     "--target", "a*z*z"],
    ["extend-hnn", "-t", "@fa3", "--name", "y", "--source", "z3*a",
     "--target", "z3*a"],
    ["extend-hnn", "-t", "@fa3", "--name", "y", "--source", "z3",
     "--target", "z3^-1"],
    ["check-axioms", "-t", "@t1", "--samples", "30", "--seed", "5"],
    ["check-axioms", "-t", "@surf2", "--samples", "20", "--seed", "2"],
    ["check-axioms", "-t", "@fa3", "--samples", "20", "--seed", "3"],
    ["check-axioms", "-t", "@ns3", "--samples", "20", "--seed", "4"],
    ["verify-pregroup", "-t", "@t1", "a", "b", "z", "--samples", "20"],
    ["verify-pregroup", "-t", "@t1", "a", "z", "--samples", "10"],
    ["check-basis", "-t", "@t1", "a", "b"],
    ["surface", "-n", "2"],
    ["nonorientable", "-n", "3"],
    ["nonorientable", "-n", "2"],
    ["abelian", "-n", "3"],
    ["free-product", "@t1", "@fa3"],
    ["free-product", "@free_a", "@t_ab", "-o", "@out/fp.tower"],
    ["eval", "-t", "@out/fp.tower", "a'*z*a"],
    ["eval", "-t", "@out/missing.tower", "a"],
]

TOUR_DIGEST = (
    "1bebc62cb6351cf678dc4485d06ca833b9eef82fd8ca4f6967731eaaf1369de3")


def test_cli_tour_digest(capsys, tmp_path):
    towers = tmp_path / "towers"
    out = tmp_path / "out"
    towers.mkdir()
    out.mkdir()
    for name, make in TOWERS.items():
        towerfile.save_tower(make(), str(towers / f"{name}.tower"))

    def path(arg):
        if arg.startswith("@out/"):
            return str(out / arg[5:])
        if arg.startswith("@"):
            return str(towers / f"{arg[1:]}.tower")
        return arg

    h = hashlib.sha256()
    for argv in TOUR:
        code = run_command([path(a) for a in argv])
        cap = capsys.readouterr()
        record = [repr(argv), str(code), cap.out, cap.err]
        for field in record:
            field = field.replace(str(tmp_path), "<tmp>")
            h.update(field.encode() + b"\0")
    assert h.hexdigest() == TOUR_DIGEST
