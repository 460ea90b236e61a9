"""Exact arithmetic in the kappa ring of moduli of curves of compact type.

The package expands products of kappa classes in the additive basis of kappa
monomials, computes every coefficient by several independent methods, and
verifies the supporting combinatorial identities against brute-force oracles.
All arithmetic is exact (big integers and fractions); there is no floating
point anywhere.
"""

from .identities import (
    IDENTITY_NAMES,
    IdentityReport,
    SweepBounds,
    check_identity,
    identity_sweep,
    labeled_trees,
    prufer_decode,
    tree_sum_oracle,
)
from .numbers import (
    alt_binomial_partial_sum,
    binomial,
    factorial,
    falling_factorial,
    format_rational,
    multinomial,
)
from .oracle import (
    DimensionSequence,
    RankDeficientPairingError,
    integer_partitions,
    integrate_kappa_top,
    integrate_psi_pushforward,
    pair_kappa_stratum,
    pairing_system,
    psi_integral,
    solve_coeffs_by_pairing,
    solve_exact,
)
from .partitions import (
    Multiset,
    SetPartition,
    block_sums,
    canonical_partition,
    induced_partition,
    multiset,
    multiset_partitions,
    refinements,
    refines,
    set_partitions,
    stirling2,
)
from .ring import (
    METHODS,
    KappaPoly,
    PsiPoly,
    basis_coeff,
    correction_coeff,
    faber_expand,
    kappa_monomial,
    kappa_product,
    kappa_to_psi,
    reduce_to_basis,
    socle_coeff,
    split_weight,
)

__version__ = "0.1.0"

__all__ = [
    "IDENTITY_NAMES",
    "IdentityReport",
    "SweepBounds",
    "check_identity",
    "identity_sweep",
    "labeled_trees",
    "prufer_decode",
    "tree_sum_oracle",
    "alt_binomial_partial_sum",
    "binomial",
    "factorial",
    "falling_factorial",
    "format_rational",
    "multinomial",
    "DimensionSequence",
    "RankDeficientPairingError",
    "integer_partitions",
    "integrate_kappa_top",
    "integrate_psi_pushforward",
    "pair_kappa_stratum",
    "pairing_system",
    "psi_integral",
    "solve_coeffs_by_pairing",
    "solve_exact",
    "Multiset",
    "SetPartition",
    "block_sums",
    "canonical_partition",
    "induced_partition",
    "multiset",
    "multiset_partitions",
    "refinements",
    "refines",
    "set_partitions",
    "stirling2",
    "METHODS",
    "KappaPoly",
    "PsiPoly",
    "basis_coeff",
    "correction_coeff",
    "faber_expand",
    "kappa_monomial",
    "kappa_product",
    "kappa_to_psi",
    "reduce_to_basis",
    "socle_coeff",
    "split_weight",
]
