"""Spans and counters recorded around marginlab's public functions.

Nothing here edits marginlab: `Tracer.install` swaps each wrapped function
for a timing wrapper in every loaded `marginlab` module that holds it, so
calls made through `from .x import f` bindings are seen too.  Spans stay in
memory, each with a link to its parent, and `Tracer.dump` writes them out
when the process is done.

Spans assume one thread: marginlab runs single-threaded unless
MARGINLAB_THREADS is set, and the benchmark leaves it unset.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute path) of every wrapped function; the metric prefix is
# the module name without "marginlab." followed by the attribute path.
WRAPPED = (
    ("cli", "parse_spec"),
    ("cli", "ProblemSpec.build"),
    ("cli", "main"),
    ("marginal", "marginal"),
    ("conjugate", "conjugate_at"),
    ("conjugate", "conjugate_fast"),
    ("conjugate", "max_dots_minus"),
    ("setmap", "map_conjugate_at"),
    ("duality", "sampled_inf_convolution"),
    ("duality", "conjugate_representation_check"),
    ("duality", "strong_duality_check"),
    ("duality", "lagrangian_identity_check"),
    ("duality", "slater_strong_duality_check"),
    ("subdiff", "marginal_subdiff_check"),
    ("subdiff", "conj_subdiff_check"),
    ("subdiff", "sum_rule_check"),
    ("subdiff", "eps_subdifferential"),
    ("nearconvex", "is_int_nearly_convex"),
)
LP_SPAN = "subdiff.lp"  # scipy's linprog as bound in subdiff and duality
BOOKKEEPING = "trace.bookkeeping"  # the tracer's own counting work

SPAN_NAMES = tuple(f"{m}.{a}" for m, a in WRAPPED) + (LP_SPAN,)


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around the block, parented to the enclosing span."""
        start = time.monotonic()
        sid = len(self.spans) + len(self._stack)  # spans opened before this one
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append((sid, parent, name, start, time.monotonic()))

    def wrap(self, name: str, fn, after=None):
        """Timing wrapper; `after(args, kwargs, result)` runs outside the span."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span(BOOKKEEPING):
                    after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every function in WRAPPED plus linprog, everywhere bound."""
        import marginlab.cli  # noqa: F401  loads every marginlab module
        from marginlab import subdiff

        after = {
            "conjugate.max_dots_minus": self._count_kernel,
            "setmap.map_conjugate_at": self._count_queries,
            "subdiff.eps_subdifferential": self._count_halfspaces,
        }
        for mod_name, path in WRAPPED:
            mod = sys.modules[f"marginlab.{mod_name}"]
            owner_path, _, attr = path.rpartition(".")
            owner = mod
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            name = f"{mod_name}.{path}"
            wrapped = self.wrap(name, orig, after.get(name))
            if owner is mod:
                _rebind(orig, wrapped)
            else:
                setattr(owner, attr, wrapped)
        lp = subdiff.linprog
        _rebind(lp, self.wrap(LP_SPAN, lp, self._count_lp))

    # --- counters, run outside the span they describe ------------------------

    def _count_kernel(self, args, kwargs, result) -> None:
        import numpy as np

        queries = np.atleast_2d(args[0])
        points = args[1]
        k, d = queries.shape
        n = points.shape[0]
        # product, subtraction and row max: 2d + 2 flops per (query, point);
        # bytes: inputs and output once, the (k, n) score matrix written by
        # the product, read and written by the subtraction, read by the max.
        self.counts["conjugate.max_dots_minus.flop"] += k * n * (2 * d + 2)
        self.counts["conjugate.max_dots_minus.bytes"] += 8 * (
            k * d + n * d + n + k + 4 * k * n
        )

    def _count_queries(self, args, kwargs, result) -> None:
        import numpy as np

        pts = np.ascontiguousarray(np.atleast_2d(args[1]), dtype=np.float64)
        self.counts["setmap.map_conjugate_at.queries"] += pts.shape[0]
        rows = pts.view(np.dtype((np.void, pts.dtype.itemsize * pts.shape[1])))
        self.counts["setmap.map_conjugate_at.distinct"] += len(np.unique(rows))

    def _count_halfspaces(self, args, kwargs, result) -> None:
        self.counts["subdiff.halfspaces"] += int(result.normals.shape[0])

    def _count_lp(self, args, kwargs, result) -> None:
        if result.status != 0:
            self.counts["subdiff.lp.failed"] += 1

    # --- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _rebind(orig, replacement) -> None:
    """Point every marginlab module attribute bound to `orig` at `replacement`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "marginlab" or mod_name.startswith("marginlab.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)
