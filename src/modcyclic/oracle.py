"""Brute-force ground truth: try every element of M as a generator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .abelian import Element
from .modules import FiniteModule, cyclic_span_is_all
from .rings import FiniteRing

DEFAULT_BOUND = 10 ** 6

CYCLIC = "cyclic"
NOT_CYCLIC = "not_cyclic"
TOO_LARGE = "too_large"


@dataclass(frozen=True)
class OracleVerdict:
    kind: str
    generator: Optional[Element]

    @property
    def decided(self) -> bool:
        return self.kind != TOO_LARGE


def brute_force(ring: FiniteRing, module: FiniteModule,
                bound: int = DEFAULT_BOUND) -> OracleVerdict:
    """Enumerate canonical coordinate vectors in lexicographic order and
    return the first y with M = Ry, if any.

    Refuses (kind "too_large") when |M| exceeds the bound instead of
    running forever.
    """
    if module.order > bound:
        return OracleVerdict(TOO_LARGE, None)
    for y in module.group.elements():
        if cyclic_span_is_all(module, y):
            return OracleVerdict(CYCLIC, y)
    return OracleVerdict(NOT_CYCLIC, None)
