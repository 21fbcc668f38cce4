"""Symbolic computation with groups carrying free regular Z^n length functions.

The package implements exact arithmetic in HNN towers over free groups:
canonical block normal forms, Z^n-valued (right-lexicographic) lengths,
common-prefix and centralizer computations, a Nielsen-style generating-set
reduction, the associated pregroup structure, and ready-made constructions
(surface groups, free abelian groups, free products).
"""

from .lamvec import vadd, vcmp, veq, vheight, vneg, vsub
from .tower import (
    AbelianSubgroup,
    Block,
    Elem,
    EngineError,
    GroupTower,
    StableLetter,
    TowerError,
    TowerRejection,
    abelian_exponents,
    abelian_membership,
    base_tower,
    centralizer,
    com,
    commutes,
    cyclic_decompose,
    equals,
    gen_elem,
    gromov2,
    height,
    invert,
    is_conjugate,
    is_cyclically_reduced,
    is_identity,
    lam_len,
    length,
    letter_elem,
    multiply,
    pow_elem,
    primitive_root,
    validate_tower,
    verify_phi_conjugation,
)
from .factory import (
    check_regular_basis,
    free_abelian,
    free_product,
    free_tower,
    surface_nonorientable,
    surface_orientable,
    t1,
    t_ab,
)
from .hnn import AdmissibilityReport, check_admissible, extend_hnn
from .nielsen import (
    GenSet,
    Inapplicable,
    ball,
    is_reduced,
    lambda_weight,
    reduce_genset,
    subgroup_contains,
    verify_witnesses,
)
from .pregroup import (
    Decomposition,
    LevelSplit,
    PSequence,
    PregroupReport,
    decompose,
    pz_membership,
    pz_product_defined,
    reduce_psequence,
    split_level,
    verify_pregroup,
)
from .towerfile import TowerFileError, load_tower, save_tower
from .wordexpr import WordSyntaxError, parse_word, render

__all__ = [n for n in dir() if not n.startswith("_")]

__version__ = "0.1.0"
