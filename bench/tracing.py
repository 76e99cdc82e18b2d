"""Per-layer tracing of modcyclic from outside the package.

`Tracer.install` wraps the public functions named in LAYERS by rebinding
the name in every loaded modcyclic module that holds it, so calls between
modules and within one module both pass through the wrapper.  Each call
records a span (id, name, start, end, parent span, check id) in memory.
`uninstall` restores the originals; untraced runs never install anything.

Self time is a span's duration minus the time of its child spans.  A
child's own bookkeeping (recording the span, measuring bit lengths) is
charged to the child, so it never shows up as its parent's self time.
"""

from __future__ import annotations

import sys
from time import perf_counter

LAYERS = {
    "instances": ["loads", "parse_instance"],
    "intlinalg": ["hnf", "snf", "kernel_mod_lattice", "solve_congruence",
                  "invert_unimodular", "in_lattice"],
    "abelian": ["canonicalize", "subgroup_span", "subgroup_meet", "subgroup_join",
                "quotient", "hom_kernel"],
    "rings": ["ring_validate", "ideal_span", "ideal_annihilator", "ideal_meet_is_zero"],
    "modules": ["module_validate", "scalar_extension", "ann_element", "spans_extension",
                "ideal_times_submodule", "cyclic_span_is_all",
                "submodule_plus_ideal_module_is_all"],
    "cyclic": ["run", "step", "check_state_invariants"],
    "cli": ["cmd_check"],
}
# Wrapped functions whose result and first argument are matrices: their
# spans also record the widest returned entry and the input row count.
SIZED = {"intlinalg.hnf", "intlinalg.snf"}
# Span names that differ from the function name.
RENAME = {"cli.cmd_check": "cli.check"}
# Called too often for a span each; only counted.
COUNTED = {"modules.act": ("modules", "FiniteModule", "act")}

# The per-layer metrics a traced run reports, as (name, unit).
PER_LAYER = (
    [("instances.loads.self_s", "s"), ("instances.parse_instance.self_s", "s")]
    + [(f"intlinalg.{f}.{stat}", unit) for f in ("hnf", "snf")
       for stat, unit in (("calls", "count"), ("self_s", "s"),
                          ("peak_bits", "bits"), ("max_rows", "rows"))]
    + [(f"intlinalg.{f}.{stat}", unit)
       for f in ("kernel_mod_lattice", "solve_congruence", "invert_unimodular", "in_lattice")
       for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"abelian.{f}.{stat}", unit)
       for f in ("canonicalize", "subgroup_span", "subgroup_meet", "subgroup_join",
                 "quotient", "hom_kernel")
       for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [("rings.ring_validate.self_s", "s")]
    + [(f"rings.{f}.{stat}", unit)
       for f in ("ideal_span", "ideal_annihilator", "ideal_meet_is_zero")
       for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [("modules.module_validate.self_s", "s")]
    + [(f"modules.{f}.{stat}", unit)
       for f in ("scalar_extension", "ann_element", "spans_extension",
                 "ideal_times_submodule", "cyclic_span_is_all",
                 "submodule_plus_ideal_module_is_all")
       for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [("modules.act.calls", "count")]
    + [("cyclic.run.self_s", "s"), ("cyclic.step.calls", "count"),
       ("cyclic.check_state_invariants.calls", "count"),
       ("cyclic.check_state_invariants.self_s", "s")]
    + [("cli.check.self_s", "s")]
)


def _peak_bits(result) -> int:
    mats = result if isinstance(result, tuple) else (result.d, result.u, result.v)
    return max((abs(x).bit_length() for m in mats for row in m.data for x in row),
               default=0)


class Stat:
    __slots__ = ("calls", "self_s", "peak_bits", "max_rows")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.peak_bits = 0
        self.max_rows = 0


class Tracer:
    def __init__(self):
        self.spans = []      # (id, name, start, end, parent id or -1, check id)
        self.stats = {}
        self.check_id = -1
        self._stack = []     # [span id, child time] per open span
        self._next_id = 0
        self._undo = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        sized = name in SIZED
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                stat.calls += 1
                stat.self_s += (end - start) - frame[1]
                spans.append((span_id, name, start, end,
                              -1 if parent is None else parent[0], self.check_id))
                if sized and result is not None:
                    stat.peak_bits = max(stat.peak_bits, _peak_bits(result))
                    stat.max_rows = max(stat.max_rows, args[0].rows)
                if parent is not None:
                    parent[1] += perf_counter() - start

        return traced

    def _count(self, name, fn):
        stat = self.stats.setdefault(name, Stat())

        def counted(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        loaded = [m for n, m in sys.modules.items()
                  if n == "modcyclic" or n.startswith("modcyclic.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"modcyclic.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                qual = f"{layer}.{fname}"
                wrapper = self._wrap(RENAME.get(qual, qual), original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))
        for name, (layer, cls_name, meth) in COUNTED.items():
            cls = getattr(sys.modules[f"modcyclic.{layer}"], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._count(name, original))
            self._undo.append((cls, meth, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self) -> dict:
        out = {}
        for name, unit in PER_LAYER:
            func, stat = name.rsplit(".", 1)
            out[name] = {"value": getattr(self.stats[func], stat), "unit": unit}
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tcheck\tname\tstart\tend\n")
            for span_id, name, start, end, parent, check in sorted(self.spans):
                fh.write(f"{span_id}\t{parent}\t{check}\t{name}\t{start:.9f}\t{end:.9f}\n")
