"""Driver that decides cyclicity of a finite module and finds a generator.

The run keeps a live triple (I_A, y, N): the ideal defining the current
quotient ring A = R/I_A, the candidate generator accumulated so far, and
the generators of a submodule N that still surjects onto M_A.  Each step
either finishes (M_A trivial: y generates; or a size obstruction
|A/a| < |M_{A/a}| appears: no generator exists) or shrinks A by an index
of at least two, so the number of steps is logarithmic in |R|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .abelian import Element, Subgroup, subgroup_span
from .instances import int_to_str
from .modules import (
    FiniteModule,
    ann_element,
    cyclic_span_is_all,
    ideal_times_submodule,
    scalar_extension,
    spans_extension,
)
from .rings import FiniteRing, ideal_annihilator, ideal_meet_is_zero


class InvariantViolationError(RuntimeError):
    """A live-state invariant failed; carries the trace collected so far."""

    def __init__(self, message: str, trace=None):
        super().__init__(message + (f"\ntrace: {trace}" if trace else ""))
        self.trace = list(trace or [])


BRANCH_YES = "yes"
BRANCH_IV = "iv"
BRANCH_V_YES = "v-yes"
BRANCH_V_NO = "v-no"


@dataclass(frozen=True)
class TraceEntry:
    """One executed step of the main loop."""

    iteration: int
    order_A: int
    branch: str
    chosen_x: Optional[tuple] = None
    order_a: Optional[int] = None
    order_b: Optional[int] = None
    meet_zero: Optional[bool] = None
    order_A_mod_a: Optional[int] = None
    order_ext_mod_a: Optional[int] = None

    def to_json_dict(self) -> dict:
        def enc(v):
            if isinstance(v, bool) or v is None:
                return v
            if isinstance(v, int):
                return int_to_str(v)
            if isinstance(v, tuple):
                return [int_to_str(c) for c in v]
            return v
        return {
            "iteration": self.iteration,
            "order_A": enc(self.order_A),
            "branch": self.branch,
            "chosen_x": enc(self.chosen_x),
            "order_a": enc(self.order_a),
            "order_b": enc(self.order_b),
            "meet_zero": self.meet_zero,
            "order_A_mod_a": enc(self.order_A_mod_a),
            "order_ext_mod_a": enc(self.order_ext_mod_a),
        }


@dataclass
class AlgState:
    """Live state: A = R/I_A is implicit in i_a; y and the generators n of
    N live in M.  `iam` is I_A*M, the lattice that M_A = M/(I_A M) is
    read from, built once when the state is."""

    ring: FiniteRing
    module: FiniteModule
    i_a: Subgroup
    y: Element
    n: tuple
    iteration: int = 0
    trace: list = field(default_factory=list)
    iam: Subgroup = field(init=False, repr=False)

    def __post_init__(self):
        self.iam = scalar_extension(self.module, self.i_a)

    @property
    def order_A(self) -> int:
        return self.ring.order // self.i_a.order()


@dataclass(frozen=True)
class NotCyclicWitness:
    """Size obstruction found at some iteration: |A/a| < |M_{A/a}| while a
    copy of A/a must embed into M_{A/a}."""

    iteration: int
    quotient_ring_order: int
    extension_order: int


@dataclass
class CyclicityResult:
    cyclic: bool
    generator: Optional[Element]
    witness: Optional[NotCyclicWitness]
    iterations: int
    trace: list

    @property
    def verdict(self) -> str:
        return "cyclic" if self.cyclic else "not_cyclic"


def init(ring: FiniteRing, module: FiniteModule) -> AlgState:
    """Starting state: A = R (zero ideal), y = 0, N = M."""
    return AlgState(ring, module, subgroup_span(ring.group, []), module.zero(),
                    tuple(module.group.gens()))


def pick_x(state: AlgState) -> Element:
    """First generator of N (in stored order) with nonzero image in M_A.
    One must exist while M_A is nontrivial, since N surjects onto M_A;
    anything else means the state is corrupt."""
    for el in state.n:
        if not state.iam.contains(el):
            return el
    raise InvariantViolationError(
        "no N-generator has nonzero image although M_A is nontrivial",
        state.trace)


def check_state_invariants(state: AlgState):
    """Checkable fragment of the quadruple invariants: y dies in M_A, N
    covers M_A (span(N) + I_A*M = M), and |N| <= floor(log2 |M|)."""
    iam = state.iam
    if not iam.contains(state.y):
        raise InvariantViolationError(
            "candidate generator y has nonzero image in M_A", state.trace)
    if not spans_extension(state.n, iam):
        raise InvariantViolationError(
            "N-generator images do not span M_A", state.trace)
    bound = state.module.order.bit_length() - 1
    if len(state.n) > bound:
        raise InvariantViolationError(
            f"|N| = {len(state.n)} exceeds floor(log2 |M|) = {bound}", state.trace)


def step(state: AlgState, *, check_invariants: bool = True):
    """Execute one loop iteration; returns a new AlgState, or the
    CyclicityResult at a verdict.  A yes-verdict generator is always
    re-verified."""
    ring, module = state.ring, state.module
    iteration = state.iteration + 1
    order_A = state.order_A
    iam = state.iam

    if iam.index() == 1:
        state.trace.append(TraceEntry(iteration, order_A, BRANCH_YES))
        state.iteration = iteration
        # Unconditional, not gated by check_invariants.
        if not cyclic_span_is_all(ring, module, state.y):
            raise InvariantViolationError(
                "claimed generator fails the span re-verification", state.trace)
        return CyclicityResult(True, state.y, None, iteration, state.trace)

    x = pick_x(state)
    images = module.images(x)
    a = ann_element(module, images, iam)
    b = ideal_annihilator(ring, state.i_a, a)
    meet, meet_zero = ideal_meet_is_zero(ring, state.i_a, a, b)
    i_a_order = state.i_a.order()
    order_a = a.order() // i_a_order
    order_b = b.order() // i_a_order

    if not meet_zero:
        entry = TraceEntry(iteration, order_A, BRANCH_IV, x.coords,
                           order_a, order_b, meet_zero)
        new_state = AlgState(ring, module, meet, state.y, state.n,
                             iteration, state.trace + [entry])
        _after_continue(state, new_state, order_A, check_invariants)
        return new_state

    iam_a = scalar_extension(module, a)
    order_A_mod_a = ring.order // a.order()
    order_ext_mod_a = iam_a.index()
    if not spans_extension(images, iam_a):
        entry = TraceEntry(iteration, order_A, BRANCH_V_NO, x.coords,
                           order_a, order_b, meet_zero,
                           order_A_mod_a, order_ext_mod_a)
        state.trace.append(entry)
        state.iteration = iteration
        return CyclicityResult(False, None,
                               NotCyclicWitness(iteration, order_A_mod_a, order_ext_mod_a),
                               iteration, state.trace)

    entry = TraceEntry(iteration, order_A, BRANCH_V_YES, x.coords,
                       order_a, order_b, meet_zero,
                       order_A_mod_a, order_ext_mod_a)
    new_state = AlgState(ring, module, b, x + state.y,
                         ideal_times_submodule(a, state.n, module),
                         iteration, state.trace + [entry])
    _after_continue(state, new_state, order_A, check_invariants)
    return new_state


def _after_continue(old: AlgState, new: AlgState, order_A: int, check: bool):
    if not check:
        return
    if new.order_A * 2 > order_A:
        raise InvariantViolationError(
            f"|A| did not halve: {order_A} -> {new.order_A}", new.trace)
    check_state_invariants(new)


def iteration_bound(ring: FiniteRing) -> int:
    """|A| at least halves per continue, so floor(log2 |R|) + 1 steps."""
    return max(ring.order.bit_length() - 1, 0) + 1


def run(ring: FiniteRing, module: FiniteModule, *,
        check_invariants: bool = True) -> CyclicityResult:
    """Decide M = Ry; the yes-verdict generator is always re-verified."""
    state = init(ring, module)
    bound = iteration_bound(ring)
    while isinstance(state, AlgState):
        if state.iteration >= bound:
            raise InvariantViolationError(
                f"iteration bound {bound} exceeded for |R| = {ring.order}",
                state.trace)
        state = step(state, check_invariants=check_invariants)
    return state
