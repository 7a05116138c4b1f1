"""In-memory span recording around public `gaudin` functions.

A ``Tracer`` replaces every module-level binding of each traced function in
the loaded ``gaudin`` modules with a wrapper that records one span
``(key index, start, end, parent index)`` per call.  Patching only the home
module would miss callers that imported the name directly (``suites`` and
``manin`` do, and ``col_det`` is reached through ``manin``'s own globals), so
every binding is replaced, and an original still held in a module-level
container fails the install.

The per-word hot paths (``NCPoly.__mul__`` and ``straighten_word``) are not
wrapped: a wrapper there would dominate what it measures.  Their work shows
as the size of the straightening cache instead.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs; metric names are "<module>.<function>_{s,total_s,calls}".
TARGETS = (
    ("cli", "main"),
    ("suites", "run_suite"),
    ("reports", "dumps_json"),
    ("algebra", "commutator"),
    ("algebra", "poisson_bracket"),
    ("ratfun", "poly_gcd"),
    ("lax", "spectral_invariants"),
    ("linalg", "rank"),
    ("manin", "talalaev_generators"),
    ("manin", "col_det"),
    ("manin", "is_manin"),
    ("manin", "column_order_invariance"),
    ("manin", "commutation_matrix"),
    ("manin", "manin_property_suite"),
    ("manin", "newton_check"),
    ("poisson", "bracket_eval"),
    ("poisson", "limit_rijk_operator"),
    ("poisson", "jacobi_check"),
    ("poisson", "antisymmetry_check"),
    ("poisson", "compatibility_check"),
    ("poisson", "family_commutes_under"),
    ("gluing", "iterate_pattern"),
    ("gluing", "rank_completeness_check"),
    ("gluing", "hg_membership_check"),
)

ROOT = "cli.main"
KEYS = tuple(f"{module}.{name}" for module, name in TARGETS)


PAIRS = "manin.commutation_matrix_pairs"


class Tracer:
    """Records spans of the traced functions for one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def install(self) -> None:
        """Wrap every binding of every target in the loaded gaudin modules."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "gaudin" or n.startswith("gaudin."))]
        for index, (module, name) in enumerate(TARGETS):
            key = KEYS[index]
            original = getattr(sys.modules[f"gaudin.{module}"], name)
            wrapper = self._wrap(index, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
            for mod in modules:
                for value in vars(mod).values():
                    if isinstance(value, (dict, list, tuple)) and any(
                            v is original for v in
                            (value.values() if isinstance(value, dict) else value)):
                        raise RuntimeError(f"{key} is still reachable unwrapped "
                                           f"through a container in {mod.__name__}")

    def _wrap(self, key_index, fn):
        spans, stack, clock = self.spans, self._stack, time.monotonic
        counters = self.counters
        counts_pairs = KEYS[key_index] == "manin.commutation_matrix"

        def traced(*args, **kwargs):
            if counts_pairs:
                n = len(args[0] if args else kwargs["gens"])
                counters[PAIRS] += n * (n - 1) // 2
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (key_index, start, end, parent)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced


def summarize(spans: list) -> dict:
    """Self time, total time and call count per key.

    Self time is a span's duration minus the time its child spans cover.
    Total time counts only the outermost span of a key, so recursion
    (``bracket_eval`` on a pencil) is not counted twice.
    """
    child = [0.0] * len(spans)
    for key, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {key: {"self_s": 0.0, "total_s": 0.0, "calls": 0} for key in KEYS}
    for index, (key, start, end, parent) in enumerate(spans):
        row = out[KEYS[key]]
        row["self_s"] += end - start - child[index]
        row["calls"] += 1
        while parent >= 0 and spans[parent][0] != key:
            parent = spans[parent][3]
        if parent < 0:
            row["total_s"] += end - start
    return out
