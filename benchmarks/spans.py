"""Span recorder for the traced passes.

It wraps public functions of `partible` from outside the library: every
module attribute that binds a wrapped function is replaced (for example
`adjoint_apply` is bound in `operators`, `reduction` and the package),
and methods are replaced on their class.  Spans are kept in memory as
flat arrays (name, parent, start, end) and written out after the pass.
Self time is a span's duration minus the time covered by its child
spans, kept as a running total per name while the pass runs.  The
dumped spans let the benchmark recompute those totals independently.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (layer name, module, function or Class.method); one name may cover several
SPANS = (
    ("cli.main", "partible.cli", "main"),
    ("poly.parse", "partible.poly", "parse_polynomial"),
    ("poly.taylor_shift", "partible.poly", "Polynomial.subst_linear"),
    ("ratfunc.new", "partible.ratfunc", "RationalFunction.__init__"),
    ("exact.primes", "partible.exact", "is_prime"),
    ("exact.primes", "partible.exact", "primes_in_range"),
    ("operators.adjoint_apply", "partible.operators", "adjoint_apply"),
    ("operators.profile", "partible.operators", "profile"),
    ("reduction.reduce", "partible.reduction", "reduce"),
    ("reduction.gamma", "partible.reduction", "gamma_candidates"),
    ("reduction.partible_reduce", "partible.reduction", "partible_reduce"),
    ("sequences.terms", "partible.sequences", "SequenceFamily.terms"),
    ("sequences.guess", "partible.sequences", "guess_annihilator"),
    ("congruence.sweep", "partible.congruence", "sweep"),
    ("congruence.table", "partible.congruence", "constant_table"),
    ("congruence.verify", "partible.congruence", "verify"),
    ("congruence.derive", "partible.congruence", "derive_constant"),
)
# counted but not timed: too cheap for a span to mean anything
COUNTS = (("exact.residue", "partible.exact", "Residue.__init__"),)


def _term_bits(terms):
    return max((abs(t).bit_length() for t in terms if isinstance(t, int)), default=0)


class Recorder:
    def __init__(self):
        self.names = sorted({name for name, _, _ in SPANS})
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.calls = dict.fromkeys(self.names + [name for name, _, _ in COUNTS], 0)
        self.term_bits_max = 0
        self._stack = []  # [span index, time covered by children]
        self._undo = []

    def _span(self, name, fn):
        code = self.names.index(name)
        stack, self_s, calls = self._stack, self.self_s, self.calls
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(code)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                starts[index] = start
                ends[index] = end
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _terms(self, fn):
        def wrapper(family, n):
            terms = fn(family, n)
            self.term_bits_max = max(self.term_bits_max, _term_bits(terms))
            return terms

        return wrapper

    def install(self):
        """Wrap every target; call once, after `partible` is imported."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "partible"]
        targets = [(name, mod, attr, self._span) for name, mod, attr in SPANS]
        targets += [(name, mod, attr, self._count) for name, mod, attr in COUNTS]
        for name, module, attr, make in targets:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                wrapped = make(name, original)
                if name == "sequences.terms":
                    wrapped = self._terms(wrapped)
                self._bind(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapped)

    def _bind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path, wall_s, jobs):
        """Write the spans, their per-name totals and the (t0, t1) of each job as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "names": self.names,
                "wall_s": wall_s,
                "jobs": jobs,
                "self_s": self.self_s,
                "calls": self.calls,
                "spans": {
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
            }, handle)
