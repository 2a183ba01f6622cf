"""Numerical semigroup trees, the ordinarization transform, and exact
count tables."""

from .analytics import (
    check_conjecture,
    max_ordinarization_attainer,
    verify_bijection,
    verify_interval_theorem,
    verify_parity_lemma,
    verify_sumset_bound,
    verify_tree_relations,
)
from .closedsets import PreconditionViolated, decompose, f_value
from .semigroup import NotClosed, Semigroup
from .tree import (
    CountMatrix,
    TooLarge,
    children_in_Tg,
    count_matrix,
    enumerate_genus,
    export_tree_dot,
    n_g1_formula,
    tg_bfs_row,
)

__version__ = "0.1.0"

__all__ = [
    "CountMatrix",
    "NotClosed",
    "PreconditionViolated",
    "Semigroup",
    "TooLarge",
    "check_conjecture",
    "children_in_Tg",
    "count_matrix",
    "decompose",
    "enumerate_genus",
    "export_tree_dot",
    "f_value",
    "max_ordinarization_attainer",
    "n_g1_formula",
    "tg_bfs_row",
    "verify_bijection",
    "verify_interval_theorem",
    "verify_parity_lemma",
    "verify_sumset_bound",
    "verify_tree_relations",
]
