"""Per-layer spans, recorded by patching cfrac's public names from outside.

Each trace point wraps a public function or method of one cfrac module.  A
function is replaced in every cfrac namespace that holds the same object
(``cfrac.cli.exp_rational`` and ``cfrac.expansions.exp_rational`` alike), and
a method or property is replaced on its class.  A point that a refactor has
removed is reported as absent instead of failing the run.

A span has a name, a start, an end and a parent.  The self time of a span is
its duration minus the time covered by its child spans; a layer's self time
is the sum over its spans.  Spans on per-term and per-row methods (``HOT``)
are only aggregated; the others are also kept in memory and written out at
the end of the run.

Aggregates and spans are tallied per request and kept only when the request
returned: one abandoned at its deadline did as much work as fitted in the
deadline, so a faster engine would raise its counts.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("core", "expansions", "irrationality", "cli", "rationals")

#: span name -> the names it wraps, as "module:attribute" or "module:Class.attribute".
TRACE_POINTS: dict[str, tuple[str, ...]] = {
    "core.term": (
        "core:ContinuedFraction.term",
        "core:ClosedFormRule.term",
        "core:ExplicitListRule.term",
        "core:EPatternRule.term",
        "core:ScaledRule.term",
    ),
    "core.step": ("core:ConvergentState.step",),
    "core.value": ("core:ConvergentState.value",),
    "core.evaluate": ("core:evaluate",),
    "core.convergents": ("core:convergents",),
    "core.equivalence_transform": ("core:equivalence_transform",),
    "expansions.gauss_tanh_cf": ("expansions:gauss_tanh_cf",),
    "expansions.tanh_integer_cf": ("expansions:tanh_integer_cf",),
    "expansions.e_simple_cf": ("expansions:e_simple_cf",),
    "expansions.tanh_rational": ("expansions:tanh_rational",),
    "expansions.exp_rational": ("expansions:exp_rational",),
    "irrationality.legendre_tail_index": ("irrationality:legendre_tail_index",),
    "irrationality.certify_irrational": ("irrationality:certify_irrational",),
    "irrationality.verify_certificate": ("irrationality:verify_certificate",),
    "cli.run": ("cli:run",),
    "cli.certified_digits": ("cli:certified_digits",),
    "cli.decimal_preview": ("cli:decimal_preview",),
    "cli.certificate_io": (
        "cli:certificate_to_json",
        "cli:certificate_from_json",
        "cli:certificate_to_text",
    ),
    "rationals.is_integer": ("rationals:is_integer",),
}

HOT = frozenset({"core.term", "core.step", "core.value", "cli.decimal_preview",
                 "rationals.is_integer"})

#: Evaluators whose results carry a depth; rounds of certified_digits.
EVALUATORS = frozenset({"core.evaluate", "expansions.exp_rational", "expansions.tanh_rational"})

#: Recorded (non-hot) spans kept in memory at most.
SPAN_LIMIT = 200_000

#: Counters that hold a maximum rather than a sum.
MAXIMA = frozenset({"core.operand_bits_max"})


def _bits(q) -> int:
    numerator = getattr(q, "numerator", q)
    denominator = getattr(q, "denominator", 1)
    return max(abs(numerator).bit_length(), denominator.bit_length())


class Tally:
    """Per-span aggregates, counters and spans of one request, or of several."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)    # exceptions leaving a layer
        self.entries = defaultdict(int)   # calls into a layer from outside it
        self.counters = defaultdict(int)
        self.spans = []                   # (id, parent id, request, name, start, end, ok)

    def add(self, other: "Tally") -> None:
        for field in ("self_s", "calls", "errors", "entries", "counters"):
            mine = getattr(self, field)
            for key, value in getattr(other, field).items():
                mine[key] = max(mine[key], value) if key in MAXIMA else mine[key] + value
        self.spans.extend(other.spans)

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)


class Tracer:
    """Span stack and tallies for one traced pass.

    ``open`` collects the request in flight; ``finish`` adds it to ``kept``
    if the request returned and drops it otherwise.
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.request = 0
        self.open = Tally()
        self.kept = Tally()
        self.requests_kept = 0
        self.requests_dropped = 0
        self.dropped_spans = 0
        self._last_id = 0
        self._stack = []                  # open frames: [name, layer, child seconds, span id]
        self._active = defaultdict(int)   # open spans per layer
        self._observers = {
            "core.step": Tracer._on_step,
            "core.term": Tracer._on_term,
            "cli.certified_digits": Tracer._on_certified_digits,
            **{name: Tracer._on_evaluator for name in EVALUATORS},
        }

    def finish(self, keep: bool) -> None:
        """Close the request in flight: add its tally to ``kept`` or drop it."""
        if keep:
            room = SPAN_LIMIT - len(self.kept.spans)
            self.dropped_spans += max(len(self.open.spans) - room, 0)
            del self.open.spans[room:]
            self.kept.add(self.open)
            self.requests_kept += 1
        else:
            self.requests_dropped += 1
        self.open = Tally()

    def call(self, name, layer, fn, args, kwargs):
        tally = self.open
        stack = self._stack
        parent = stack[-1] if stack else None
        if name in HOT:
            span_id = parent[3] if parent else None
        else:
            self._last_id += 1
            span_id = self._last_id
        frame = [name, layer, 0.0, span_id]
        stack.append(frame)
        self._active[layer] += 1
        ok = False
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            ok = True
        except Exception:
            if parent is None or parent[1] != layer:
                tally.errors[layer] += 1
            raise
        finally:
            end = self.clock()
            stack.pop()
            self._active[layer] -= 1
            elapsed = end - start
            tally.self_s[name] += elapsed - frame[2]
            if parent is not None:
                parent[2] += elapsed
            if parent is None or parent[0] != name:
                tally.calls[name] += 1
            if parent is None or parent[1] != layer:
                tally.entries[layer] += 1
            if name in EVALUATORS and parent is not None and parent[0] == "cli.certified_digits":
                tally.counters["cli.rounds"] += 1
            if name not in HOT:
                tally.spans.append((span_id, parent[3] if parent else None, self.request, name,
                                    start - self.origin, end - self.origin, ok))
        observer = self._observers.get(name)
        if observer is not None:
            observer(self, parent, result)
        return result

    def _on_step(self, parent, state):
        h, k = getattr(state, "h_curr", 0), getattr(state, "k_curr", 0)
        counters = self.open.counters
        counters["core.operand_bits_max"] = max(counters["core.operand_bits_max"],
                                                _bits(h), _bits(k))

    def _on_term(self, parent, term):
        if self._active["irrationality"] and (parent is None or parent[0] != "core.term"):
            self.open.counters["irrationality.terms"] += 1

    def _on_certified_digits(self, parent, result):
        self.open.counters["cli.useful_rounds"] += 1

    def _on_evaluator(self, parent, result):
        if parent is None or parent[0] not in EVALUATORS:
            self.open.counters["core.depth_sum"] += getattr(result, "depth", 0)

    def dump(self, path, absent) -> None:
        """Write the spans of the kept requests and the absent trace points as JSON."""
        payload = {
            "fields": ["id", "parent", "request", "name", "start_s", "end_s", "ok"],
            "absent": list(absent),
            "requests_kept": self.requests_kept,
            "requests_dropped": self.requests_dropped,
            "dropped_spans": self.dropped_spans,
            "spans": self.kept.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _traced(tracer: Tracer, name: str, layer: str, fn):
    call = tracer.call

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return call(name, layer, fn, args, kwargs)

    return traced


class Patch:
    """The installed wrappers; ``restore`` puts every original back."""

    def __init__(self):
        self.replaced = []   # (owner, attribute, original)
        self.absent = []     # trace targets not found

    def restore(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def install(tracer: Tracer) -> Patch:
    """Wrap every trace point found in the imported ``cfrac`` modules."""
    modules = {name: module for name, module in list(sys.modules.items())
               if name == "cfrac" or name.startswith("cfrac.")}
    patch = Patch()
    for span, targets in TRACE_POINTS.items():
        layer = span.split(".", 1)[0]
        for target in targets:
            module_name, _, qualname = target.partition(":")
            module = modules.get(f"cfrac.{module_name}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name, None)
                raw = vars(owner).get(attr) if isinstance(owner, type) else None
                if isinstance(raw, property) and raw.fget is not None:
                    new = property(_traced(tracer, span, layer, raw.fget), raw.fset, raw.fdel, raw.__doc__)
                elif callable(raw):
                    new = _traced(tracer, span, layer, raw)
                else:
                    patch.absent.append(target)
                    continue
                setattr(owner, attr, new)
                patch.replaced.append((owner, attr, raw))
                continue
            original = getattr(module, qualname, None)
            if not callable(original):
                patch.absent.append(target)
                continue
            wrapped = _traced(tracer, span, layer, original)
            for holder in modules.values():
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapped)
                        patch.replaced.append((holder, attr, original))
    return patch
