"""Outside-in tracer: spans around the public functions of each schemeforge layer.

The tracer changes no file of the program. install() rebinds each listed
function in every loaded schemeforge module that holds it (cli, scheme and
predistance each bind their own `minimal_polynomial`, for example), and
wraps two matrix methods on their classes; uninstall() puts the originals
back. Spans stay in memory and are written as JSON lines at the end of a
run.

A span's self time is its duration minus the durations of its direct
children. Wrappers that measure the bit size of a matrix result do so after
the span has ended; that bookkeeping time is recorded on the span (`book`)
and subtracted from its parent, so self times plus bookkeeping add up to
the root spans exactly.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from dataclasses import asdict, dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable, Optional


def entry_bits(value) -> int:
    """Largest numerator or denominator bit length in a matrix call's result."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (list, tuple)):
        return max((entry_bits(v) for v in value), default=0)
    rows = getattr(value, "rows", None)
    if rows is not None:
        return entry_bits(rows)
    return 0


# (module, attribute, span name, bit-size probe); functions are rebound in
# every schemeforge module that imported them.
FUNCTIONS = (
    ("schemeforge.cli", "run_command", "cli.run_command", None),
    ("schemeforge.io", "parse_matrix", "io.parse_matrix", None),
    ("schemeforge.stochastic", "classify", "stochastic.classify", None),
    ("schemeforge.digraph", "distance_structure", "digraph.distance_structure", None),
    ("schemeforge.matrix", "solve_rational_system", "matrix.solve", entry_bits),
    ("schemeforge.matrix", "trace_inner_product", "matrix.trace_inner", entry_bits),
    ("schemeforge.hoffman", "minimal_polynomial", "hoffman.minimal_polynomial", None),
    ("schemeforge.hoffman", "hoffman_polynomial", "hoffman.hoffman_polynomial", None),
    ("schemeforge.predistance", "predistance_basis", "predistance.predistance_basis", None),
    ("schemeforge.predistance", "lambda_avoiding_gram_schmidt", "predistance.gram_schmidt", None),
    ("schemeforge.predistance", "verify_hoffman_sum", "predistance.verify_hoffman_sum", None),
    ("schemeforge.scheme", "detect_scheme", "scheme.detect_scheme", None),
    ("schemeforge.scheme", "intersection_numbers", "scheme.intersection_numbers", None),
    ("schemeforge.scheme", "transpose_map", "scheme.transpose_map", None),
    ("schemeforge.spectral", "roots", "spectral.roots", None),
    ("schemeforge.spectral", "idempotents", "spectral.idempotents", None),
    ("schemeforge.spectral", "perron_check", "spectral.perron_check", None),
)

# (module, class, method, span name, bit-size probe)
METHODS = (
    ("schemeforge.matrix", "RationalMatrix", "__matmul__", "matrix.matmul", entry_bits),
    ("schemeforge.matrix", "MatrixPowerBasis", "evaluate", "matrix.evaluate", entry_bits),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    instance: int
    book: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.instances: list[dict] = []
        self.entry_bits: dict[int, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def begin_instance(self, **meta) -> None:
        """Start a new request; spans opened from now on carry its id."""
        self.instances.append(meta)

    def max_entry_bits(self, include: Callable[[dict], bool] = lambda meta: True) -> int:
        """Largest entry bit size over the requests whose metadata passes `include`."""
        return max(
            (bits for i, bits in self.entry_bits.items() if include(self.instances[i])), default=0
        )

    def wrap(self, fn: Callable, name: str, probe: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, len(self.instances) - 1)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if probe is not None:
                bits = probe(return_value)
                if bits > self.entry_bits.get(span.instance, 0):
                    self.entry_bits[span.instance] = bits
                span.book = perf_counter() - span.end
            return return_value

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "schemeforge" or k.startswith("schemeforge.")]
        for module_name, attr, name, probe in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(original, name, probe)
            for module in modules:
                if vars(module).get(attr) is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(functools.partial(setattr, module, attr, original))
        for module_name, class_name, attr, name, probe in METHODS:
            cls = getattr(sys.modules.get(module_name), class_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.missing.append(name)
                continue
            setattr(cls, attr, self.wrap(original, name, probe))
            self._undo.append(functools.partial(setattr, cls, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's (and their bookkeeping)."""
        out = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                out[span.parent] -= span.end - span.start + span.book
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, bookkeeping seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "book_s": 0.0}
        )
        for span, self_s in zip(self.spans, self.self_times()):
            entry = out[span.name]
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += self_s
            entry["book_s"] += span.book
        return dict(out)

    def check_accounting(self, root: str = "cli.run_command") -> None:
        """Self times plus bookkeeping must add up to the root spans' durations."""
        roots = [s for s in self.spans if s.parent < 0]
        if any(s.name != root for s in roots):
            raise AssertionError(f"span outside {root}: {sorted({s.name for s in roots} - {root})}")
        totals = self.totals()
        accounted = sum(t["self_s"] + t["book_s"] for t in totals.values())
        wall = sum(s.end - s.start for s in roots)
        if abs(accounted - wall) > 1e-6 * max(1.0, wall):
            raise AssertionError(f"self times add to {accounted} s, root spans to {wall} s")

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for i, meta in enumerate(self.instances):
                bits = self.entry_bits.get(i, 0)
                handle.write(json.dumps({"instance": i, **meta, "max_entry_bits": bits}) + "\n")
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({"span": i, **asdict(span)}) + "\n")
