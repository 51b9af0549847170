"""The traced run: wrappers installed from outside the program.

Each wrapped public function records a span (name, start, end, parent) in
memory; constructors and `check_weight` are only counted. A wrapper replaces
the function in every `delannoy` module namespace that holds it, so calls
made inside the package are seen too. Wrappers read results (to count output
terms) and never change them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, attribute, metric name, size of the result counted as output).
SPANNED = (
    ("paths", "enumerate_paths", "paths.enumerate_paths", None),
    ("paths", "lift3", "paths.lift3", None),
    ("euler", "refine", "euler.refine", "cells_out"),
    ("euler", "multiply", "euler.multiply", None),
    ("euler", "pair", "euler.pair", None),
    ("euler", "integrate", "euler.integrate", None),
    ("category", "compose", "category.compose", "terms_out"),
    ("category", "compose_oracle", "category.compose_oracle", None),
    ("category", "apply_kernel", "category.apply_kernel", None),
    ("category", "multiplicity_rank", "category.multiplicity_rank", None),
    ("kring", "tensor_mul", "kring.tensor_mul", "terms_out"),
    ("kring", "antipode", "kring.antipode", None),
    ("kring", "concat_mul", "kring.concat_mul", None),
    ("kring", "lambda_binomial", "kring.lambda_binomial", None),
    ("kring", "adams", "kring.adams", None),
    ("kring", "schur_apply", "kring.schur_apply", None),
    ("linalg", "matrix_rank", "linalg.matrix_rank", None),
    ("cli", "main", "cli.main", None),
)
COUNTED_CALLS = (("paths", "check_weight", "paths.check_weight.calls"),)
COUNTED_CLASSES = (
    ("paths", "Path", "paths.Path.constructed"),
    ("euler", "SchwartzFn", "euler.SchwartzFn.constructed"),
    ("category", "Morphism", "category.Morphism.constructed"),
    ("kring", "KClass", "kring.KClass.constructed"),
)
# (module, memoised function, metric prefix) read through cache_info().
CACHES = (
    ("paths", "enumerate_paths", "paths.enumerate_paths"),
    ("category", "_compose_basis", "category.compose_basis"),
    ("kring", "_tensor_basis", "kring.tensor_basis"),
    ("kring", "_antipode_word", "kring.antipode_word"),
)


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "delannoy" or name.startswith("delannoy."))]


def _replace_everywhere(original, wrapper) -> None:
    for module in _package_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


class Tracer:
    """Spans and counts for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.caches: dict = {}

    def install(self) -> None:
        mod = {m.__name__.rsplit(".", 1)[-1]: m for m in _package_modules()}
        for module, attr, prefix in CACHES:
            self.caches[prefix] = getattr(mod[module], attr)
        for module, attr, name, output in SPANNED:
            original = getattr(mod[module], attr)
            _replace_everywhere(original, self._spanned(original, name, output))
        for module, attr, name in COUNTED_CALLS:
            original = getattr(mod[module], attr)
            _replace_everywhere(original, self._counted(original, name))
        for module, cls_name, name in COUNTED_CLASSES:
            cls = getattr(mod[module], cls_name)
            cls.__init__ = self._counted(cls.__init__, name)

    def _spanned(self, fn, name: str, output):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.process_time  # CPU time, as in the untraced passes
        size_key = f"{name}.{output}" if output else None

        def wrapper(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[span] = (index, start, clock(), parent)
                stack.pop()
            if size_key:
                counts[size_key] += len(result.coeffs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self) -> dict:
        """Calls and self times per spanned name, counts, and cache figures."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for i, (index, start, end, _) in enumerate(self.spans):
            name = self.names[index]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_time[i]
        for _, _, name, output in SPANNED:
            if output:
                out[f"{name}.{output}"] = self.counts[f"{name}.{output}"]
        for _, _, name in COUNTED_CALLS + COUNTED_CLASSES:
            out[name] = self.counts[name]
        for prefix, fn in self.caches.items():
            info = fn.cache_info()
            looked_up = info.hits + info.misses
            out[f"{prefix}.cache_hits"] = info.hits
            out[f"{prefix}.cache_misses"] = info.misses
            out[f"{prefix}.cache_size"] = info.currsize
            out[f"{prefix}.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start, end (seconds), parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, start, end, parent in self.spans:
                fh.write(json.dumps([self.names[index], round(start, 9), round(end, 9), parent]))
                fh.write("\n")
