"""Span tracer for the traced benchmark run.

The tracer wraps lndkit's public functions from the outside: nothing
under src/ knows it exists.  Each wrapped call records one span (id,
parent id, operation id, name, start, end, self time) in memory; the
spans are written out once, when the run ends.  A function is patched in
every lndkit module that imported it, not only where it is defined, so
calls such as kernel_check -> relation_ideal go through the wrapper.

Self time is the span's duration minus the durations of its wrapped
children.  Calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, attribute path, span name).  Methods are patched on their
# class, so every caller sees the wrapper.  Aliases such as
# Polynomial.__rmul__ = __mul__ and RingMap.__call__ = apply are
# separate attributes and are listed separately.
TARGETS = (
    ("lndkit.poly", "Polynomial.evaluate", "poly.evaluate"),
    ("lndkit.poly", "Polynomial.__mul__", "poly.mul"),
    ("lndkit.poly", "Polynomial.__rmul__", "poly.mul"),
    ("lndkit.poly", "Polynomial.__pow__", "poly.pow"),
    ("lndkit.poly", "RingMap.apply", "poly.ringmap"),
    ("lndkit.poly", "RingMap.__call__", "poly.ringmap"),
    ("lndkit.parse", "parse_polynomial", "parse.parse"),
    ("lndkit.parse", "print_canonical", "parse.print"),
    ("lndkit.derivation", "Derivation.apply", "derivation.apply"),
    ("lndkit.derivation", "Derivation.orbit_point", "derivation.orbit_point"),
    ("lndkit.derivation", "Derivation.iterates", "derivation.iterates"),
    ("lndkit.groebner", "SubalgebraTester.__init__", "groebner.tester_init"),
    ("lndkit.groebner", "SubalgebraTester.representation", "groebner.representation"),
    ("lndkit.groebner", "relation_ideal", "groebner.relation_ideal"),
    ("lndkit.kernel", "kernel_check", "kernel.kernel_check"),
    ("lndkit.kernel", "kernel_compute", "kernel.kernel_compute"),
    ("lndkit.kernel", "slice_kernel_generators", "kernel.slice_generators"),
    ("lndkit.casebook", "random_suite", "casebook.random_suite"),
    ("lndkit.casebook", "verify_paper", "casebook.verify_paper"),
    ("lndkit.cli", "run", "cli.run"),
)

# A call to one of these starts a new operation (one kernel round, one
# relation ideal, one orbit sample) unless an operation is already open.
OPERATIONS = frozenset(
    {"kernel.kernel_check", "groebner.relation_ideal", "casebook.random_suite"}
)

# Generator functions: their items are counted, their time is left to
# whoever consumes them.
GENERATORS = frozenset({"derivation.iterates"})

# Per-layer metrics reported by the traced run, with their units.  Every
# "<span>.calls" / "<span>.self_s" pair is read off the spans; the rest
# are derived in layer_metrics.
LAYER_METRICS = (
    ("poly.evaluate.calls", "count"),
    ("poly.evaluate.self_s", "s"),
    ("poly.mul.calls", "count"),
    ("poly.mul.self_s", "s"),
    ("poly.pow.self_s", "s"),
    ("poly.ringmap.calls", "count"),
    ("poly.ringmap.self_s", "s"),
    ("parse.parse.calls", "count"),
    ("parse.parse.self_s", "s"),
    ("parse.print.calls", "count"),
    ("parse.print.self_s", "s"),
    ("derivation.apply.calls", "count"),
    ("derivation.apply.self_s", "s"),
    ("derivation.orbit_point.calls", "count"),
    ("derivation.orbit_point.self_s", "s"),
    ("derivation.iterates.items", "count"),
    ("groebner.representation.calls", "count"),
    ("groebner.representation.self_s", "s"),
    ("groebner.representation.miss_frac", "ratio"),
    ("groebner.tester_init.calls", "count"),
    ("groebner.tester_init.self_s", "s"),
    ("groebner.relation_ideal.calls", "count"),
    ("groebner.relation_ideal.self_s", "s"),
    ("groebner.relation_ideal.generators", "count"),
    ("groebner.coeff_bits.max", "bits"),
    ("kernel.check_s.r1", "s"),
    ("kernel.check_s.r2", "s"),
    ("kernel.check_s.r3", "s"),
    ("kernel.slice_generators.self_s", "s"),
    ("kernel.candidates", "count"),
    ("kernel.fresh_frac", "ratio"),
    ("casebook.random_suite.self_s", "s"),
    ("casebook.verify_paper.self_s", "s"),
    ("cli.run.self_s", "s"),
)


def _coeff_bits(relations) -> int:
    bits = 0
    for g in relations.generators:
        for c in g.term_dict().values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.active = False
        self.phase = "setup"
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.relations: list = []
        self.candidate_counts: dict[int, int] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._ops = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name in GENERATORS:
            return self._wrap_generator(name, fn)
        tracer = self
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        opens = name in OPERATIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            op = parent[1] if parent else tracer.phase
            if opens and "#" not in op:
                tracer._ops += 1
                op = f"{tracer.phase}/{name}#{tracer._ops}"
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, op, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                spans.append(
                    (span_id, parent[0] if parent else -1, op, name,
                     start, end, duration - frame[2])
                )
            tracer._observe(name, span_id, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tracer.active:
                    tracer.counters[name + ".items"] += 1
                yield item

        return wrapper

    def _observe(self, name: str, span_id: int, result) -> None:
        """Counts read off a call's return value."""
        if name == "groebner.representation":
            if result is None:
                self.counters["groebner.representation.misses"] += 1
        elif name == "groebner.relation_ideal":
            self.relations.append(result)
        elif name == "kernel.kernel_check":
            self.counters["kernel.relations_checked"] += len(result.checks)
            self.counters["kernel.relations_fresh"] += sum(
                c.representation is None for c in result.checks
            )
        elif name == "kernel.kernel_compute":
            self.candidate_counts[span_id] = result.counts[-1]

    def install(self) -> None:
        """Patch every target in every loaded lndkit module."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "lndkit" or key.startswith("lndkit."))
        ]
        for module_name, path, name in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original)
            setattr(owner, attr, wrapped)
            if outer:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        self.active = True

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for span in self.spans:
            calls[span[3]] += 1
            self_s[span[3]] += span[6]
        out: dict[str, float] = {}
        for metric, _ in LAYER_METRICS:
            span_name, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls[span_name]
            elif field == "self_s":
                out[metric] = self_s[span_name]
        counters = self.counters
        rep_calls = calls["groebner.representation"]
        out["groebner.representation.miss_frac"] = (
            counters["groebner.representation.misses"] / rep_calls if rep_calls else 0.0
        )
        out["derivation.iterates.items"] = counters["derivation.iterates.items"]
        out["groebner.relation_ideal.generators"] = sum(
            len(r.generators) for r in self.relations
        )
        out["groebner.coeff_bits.max"] = max(
            (_coeff_bits(r) for r in self.relations), default=0
        )
        # rounds and candidates of the workload's first kernel_compute
        first = min(
            (s for s in self.spans if s[3] == "kernel.kernel_compute" and s[2] == "work"),
            key=lambda s: s[4],
            default=None,
        )
        rounds = []
        if first is not None:
            rounds = sorted(
                (s for s in self.spans
                 if s[1] == first[0] and s[3] == "kernel.kernel_check"),
                key=lambda s: s[4],
            )
        for k in (1, 2, 3):
            out[f"kernel.check_s.r{k}"] = (
                rounds[k - 1][5] - rounds[k - 1][4] if len(rounds) >= k else 0.0
            )
        out["kernel.candidates"] = self.candidate_counts[first[0]] if first else 0
        checked = counters["kernel.relations_checked"]
        out["kernel.fresh_frac"] = (
            counters["kernel.relations_fresh"] / checked if checked else 0.0
        )
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per line: id, parent, op, name, start, end, self."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")
