"""Decide whether a finite module over a finite commutative ring is cyclic,
and if it is, produce a generator."""

from .abelian import NotFiniteError
from .cyclic import InvariantViolationError, run
from .instances import (
    InstanceFormatError,
    ValidationFailure,
    gen_prod,
    gen_randquot,
    gen_trunc,
    gen_zmod,
    parse_instance,
)
from .oracle import brute_force

__version__ = "0.1.0"
