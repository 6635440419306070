"""Closed vocabulary of group properties and the four-valued end count."""

from __future__ import annotations

import enum


class EndCount(enum.Enum):
    """Number of ends of a finitely generated group: always 0, 1, 2 or infinity."""

    ZERO = "0"
    ONE = "1"
    TWO = "2"
    INFINITE = "inf"

    def __str__(self):
        return self.value


class PropertyAtom(enum.Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    FG = "fg"
    FP = "fp"
    RECURSIVELY_PRESENTED = "recursively_presented"
    ENDS_ZERO = "ends_zero"
    ENDS_ONE = "ends_one"
    ENDS_TWO = "ends_two"
    ENDS_INFINITE = "ends_infinite"
    SEMISTABLE = "semistable"
    SC_INF = "sc_inf"
    NO_F2_SUBGROUP = "no_f2_subgroup"
    WORD_HYPERBOLIC = "word_hyperbolic"
    ONE_RELATOR = "one_relator"
    VIRTUALLY_METANILPOTENT = "virtually_metanilpotent"
    SOLVABLE = "solvable"
    HAS_ZXZ_QUOTIENT = "has_zxz_quotient"
    NORMAL_INF_FG_INF_INDEX_SUBGROUP = "normal_inf_fg_inf_index_subgroup"
    COMMENSURATED_INF_FG_INF_INDEX_SUBGROUP = "commensurated_inf_fg_inf_index_subgroup"
    SUBNORMAL_CHAIN_WITNESS = "subnormal_chain_witness"
    SUBCOMMENSURATED_CHAIN_WITNESS = "subcommensurated_chain_witness"
    ASCENDING_HNN_OF_INF_FP_BASE = "ascending_hnn_of_inf_fp_base"
    ASCENDING_HNN_BASE_ONE_ENDED = "ascending_hnn_base_one_ended"
    REL_HYP_WITH_SEMISTABLE_PERIPHERALS = "rel_hyp_with_semistable_peripherals"
    H1_EPS_SEMISTABLE = "h1_eps_semistable"
    H2_FREE_ABELIAN = "h2_free_abelian"
    H2_TRIVIAL = "h2_trivial"
    H2_NONTRIVIAL = "h2_nontrivial"
    PRO_GROUP_STABLE = "pro_group_stable"

    # Equality is identity, so the identity hash is consistent with it and
    # skips the Python-level Enum.__hash__ on every fact-key lookup.
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


ENDS_ATOMS = {
    EndCount.ZERO: PropertyAtom.ENDS_ZERO,
    EndCount.ONE: PropertyAtom.ENDS_ONE,
    EndCount.TWO: PropertyAtom.ENDS_TWO,
    EndCount.INFINITE: PropertyAtom.ENDS_INFINITE,
}
