"""Vector bundles on projective n-space through short free resolutions.

The package classifies the twist data (Betti pairs) realizable by bundles
with vanishing intermediate cohomology, enumerates their Hilbert functions
as bundle sequences, assembles the graded lattice of pairs over a fixed
Hilbert function, and constructs and verifies explicit presentation
matrices over a prime field.
"""

from .betti import BettiPair, enumerate_admissible, generalization_witness, generalizes
from .bundles import (
    DeformFamily,
    PresMatrix,
    deform_family,
    explicit_matrix,
    minimize_presentation,
    random_matrix,
    random_minimal_map,
    slope_and_semistability,
    split_bound,
    verify_bundle,
)
from .errors import (
    BadInput,
    DomainError,
    EmptyA,
    ModulusMismatch,
    NotABundle,
    NotAdmissible,
    NotGeneralization,
    NotSubMultiset,
    RegularityTooSmall,
    ShapeError,
    UnknownFormat,
)
from .generate import bundle_sequences, bundle_sequences_by_reg, max_difference
from .hilbert import (
    BundleSeq,
    HilbertFn,
    hilbert_of_betti,
    is_valid_hilbert,
    minimal_betti,
    normalize,
)
from .lattice import BettiLattice
from .poly import Ideal, Poly, format_poly, groebner_basis, maximal_minors, monomials, normal_form, parse_poly
from .seqs import IntSeq, parse_seq, seq_diff, seq_max, seq_min, seq_sum

__version__ = "0.1.0"

__all__ = [
    "BadInput",
    "BettiLattice",
    "BettiPair",
    "BundleSeq",
    "DeformFamily",
    "DomainError",
    "EmptyA",
    "HilbertFn",
    "Ideal",
    "IntSeq",
    "ModulusMismatch",
    "NotABundle",
    "NotAdmissible",
    "NotGeneralization",
    "NotSubMultiset",
    "Poly",
    "PresMatrix",
    "RegularityTooSmall",
    "ShapeError",
    "UnknownFormat",
    "bundle_sequences",
    "bundle_sequences_by_reg",
    "deform_family",
    "enumerate_admissible",
    "explicit_matrix",
    "format_poly",
    "generalization_witness",
    "generalizes",
    "groebner_basis",
    "hilbert_of_betti",
    "is_valid_hilbert",
    "maximal_minors",
    "max_difference",
    "minimal_betti",
    "minimize_presentation",
    "monomials",
    "normal_form",
    "normalize",
    "parse_poly",
    "parse_seq",
    "random_matrix",
    "random_minimal_map",
    "seq_diff",
    "seq_max",
    "seq_min",
    "seq_sum",
    "slope_and_semistability",
    "split_bound",
    "verify_bundle",
]
