"""Driver that decides cyclicity of a finite module and finds a generator.

The run keeps a live triple (I_A, y, N): the ideal defining the current
quotient ring A = R/I_A, the candidate generator accumulated so far, and
the generators of a submodule N that still surjects onto M_A.  Each step
either finishes (M_A trivial: y generates; or a size obstruction
|A/a| < |M_{A/a}| appears: no generator exists) or shrinks A by an index
of at least two, so the number of steps is logarithmic in |R|.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from .abelian import Element, Subgroup, subgroup_span
from .intstr import int_text, int_to_str
from .modules import (
    FiniteModule,
    ann_element,
    cyclic_span_is_all,
    ideal_products,
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
    """One executed step of the main loop.  Its iteration is its place in
    the trace, counted from 1.  `chosen_x`, `order_a` and `order_b` are
    None on the yes branch, and `order_ext_mod_a` off the v branches."""

    order_A: int
    branch: str
    chosen_x: Optional[tuple] = None
    order_a: Optional[int] = None
    order_b: Optional[int] = None
    order_ext_mod_a: Optional[int] = None

    def __repr__(self) -> str:
        # The dataclass repr, with ints past the interpreter's digit limit
        return "TraceEntry(" + ", ".join(
            f"{f.name}={int_text(v) if isinstance(v, (int, tuple)) else repr(v)}"
            for f in fields(self) for v in (getattr(self, f.name),)) + ")"

    @property
    def meet_zero(self) -> Optional[bool]:
        """Whether I_A, a and b meet in zero: branch iv is taken exactly
        when they do not."""
        return None if self.branch == BRANCH_YES else self.branch != BRANCH_IV

    @property
    def order_A_mod_a(self) -> Optional[int]:
        """|A/a| = |A| / |a/I_A|, on the v branches."""
        return None if self.order_ext_mod_a is None else self.order_A // self.order_a


@dataclass
class AlgState:
    """Live state: A = R/I_A is implicit in i_a; y and the generators n of
    N live in M.  `iam` is I_A*M, the lattice that M_A = M/(I_A M) is
    read from, built once when the state is.  The trace holds one entry
    per executed step, so its length is the iteration count."""

    module: FiniteModule
    i_a: Subgroup
    y: Element
    n: tuple
    trace: list = field(default_factory=list)
    iam: Subgroup = field(init=False, repr=False)

    def __post_init__(self):
        self.iam = scalar_extension(self.module, ideal_products(self.module, self.i_a))

    @property
    def iteration(self) -> int:
        return len(self.trace)

    @property
    def order_A(self) -> int:
        return self.i_a.index()


@dataclass
class CyclicityResult:
    """The generator of a cyclic run (None when there is none) and the
    trace, which the verdict, the witness and the iteration count are read
    from.  A not-cyclic run's witness is its last trace entry, the v-no
    step whose size obstruction |A/a| < |M_{A/a}| decided it."""

    generator: Optional[Element]
    trace: list

    @property
    def cyclic(self) -> bool:
        return self.generator is not None

    @property
    def witness(self) -> Optional[TraceEntry]:
        return None if self.cyclic else self.trace[-1]

    @property
    def iterations(self) -> int:
        return len(self.trace)


def init(module: FiniteModule) -> AlgState:
    """Starting state: A = R (zero ideal), y = 0, N = M."""
    return AlgState(module, subgroup_span(module.ring.group, []), module.zero(),
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


def step(state: AlgState):
    """Execute one loop iteration; returns a new AlgState, or the
    CyclicityResult at a verdict, and leaves its argument unchanged.  Every
    continue re-checks the invariants; a yes-verdict generator is re-verified."""
    module = state.module
    order_A = state.order_A
    iam = state.iam

    if iam.index() == 1:
        trace = state.trace + [TraceEntry(order_A, BRANCH_YES)]
        if not cyclic_span_is_all(module, state.y):
            raise InvariantViolationError(
                "claimed generator fails the span re-verification", trace)
        return CyclicityResult(state.y, trace)

    x = pick_x(state)
    images = module.images(x)
    a = ann_element(module, images, iam)
    b = ideal_annihilator(module.ring, state.i_a, a)
    meet, meet_zero = ideal_meet_is_zero(state.i_a, a, b)
    # |a/I_A| = |R : I_A| / |R : a|, and the same for b
    order_a, order_b = order_A // a.index(), order_A // b.index()

    if not meet_zero:
        trace = state.trace + [TraceEntry(order_A, BRANCH_IV, x.coords, order_a, order_b)]
        new = AlgState(module, meet, state.y, state.n, trace)
    else:
        rows = ideal_products(module, a)  # u*m_j over a's basis, for M_{A/a} and a*N
        iam_a = scalar_extension(module, rows)
        spans = spans_extension(images, iam_a)
        trace = state.trace + [TraceEntry(order_A, BRANCH_V_YES if spans else BRANCH_V_NO,
                                          x.coords, order_a, order_b, iam_a.index())]
        if not spans:
            return CyclicityResult(None, trace)
        new = AlgState(module, b, x + state.y,
                       ideal_times_submodule(rows, state.n, module), trace)

    if new.order_A * 2 > order_A:
        raise InvariantViolationError(
            f"|A| did not halve: {int_to_str(order_A)} -> {int_to_str(new.order_A)}",
            trace)
    check_state_invariants(new)
    return new


def iteration_bound(ring: FiniteRing) -> int:
    """|A| at least halves per continue, so floor(log2 |R|) + 1 steps."""
    return max(ring.order.bit_length() - 1, 0) + 1


def run(module: FiniteModule) -> CyclicityResult:
    """Decide M = Ry over M's ring; the yes-verdict generator is always re-verified."""
    state = init(module)
    bound = iteration_bound(module.ring)
    while isinstance(state, AlgState):
        if state.iteration >= bound:
            raise InvariantViolationError(
                f"iteration bound {bound} exceeded for |R| = {int_to_str(module.ring.order)}",
                state.trace)
        state = step(state)
    return state
