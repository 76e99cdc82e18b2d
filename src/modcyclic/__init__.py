"""Decide whether a finite module over a finite commutative ring is cyclic,
and if it is, produce a generator."""

from .abelian import (
    CanonicalGroup,
    Element,
    NotFiniteError,
    Subgroup,
    canonicalize,
    hom_kernel,
    quotient,
    subgroup_join,
    subgroup_meet,
    subgroup_span,
)
from .cyclic import CyclicityResult, InvariantViolationError, TraceEntry, run
from .instances import (
    InstanceFormatError,
    ParsedInstance,
    ValidationFailure,
    gen_prod,
    gen_randquot,
    gen_trunc,
    gen_zmod,
    parse_instance,
)
from .intlinalg import IntMatrix, SnfResult, hnf, kernel_mod_lattice, snf, solve_congruence
from .modules import (
    FiniteModule,
    ann_element,
    cyclic_span_is_all,
    ideal_times_submodule,
    module_validate,
    scalar_extension,
    spans_extension,
)
from .oracle import OracleVerdict, brute_force
from .rings import (
    Diagnostic,
    FiniteRing,
    NoIdentityError,
    find_identity,
    ideal_annihilator,
    ideal_meet_is_zero,
    ideal_span,
    ring_validate,
)

__version__ = "0.1.0"
