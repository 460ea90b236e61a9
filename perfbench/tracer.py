"""Per-layer tracing of kapparing from outside the package.

``Tracer.install()`` replaces every binding of the traced functions in every
loaded ``kapparing`` module with a wrapper, and ``uninstall()`` puts the
originals back.  Every binding matters: ``ring``, ``oracle``, ``identities``,
``verification`` and ``cli`` import helpers with ``from .x import f``, so
patching only the defining module would miss their calls.

Three kinds of wrapper:

* span    - times the call; its self time is its duration minus the time of
            the traced calls it makes, charged to ``<layer>.<function>``;
* gen     - a span around each ``next()`` of a generator, plus a count of the
            items yielded;
* count   - a plain call counter for helpers too hot to time (``factorial``,
            ``canonical_partition``, ``refines``).

Time spent in functions that are not wrapped is charged to the span that
called them.  Spans live in memory only; ``metrics()`` folds them into the
per-layer numbers that ``BENCHMARK.json`` names.

Process-pool workers forked from a traced process run the wrappers with
tracing switched off, so their work is not counted; the parent's time in a
pooled ``run_ordered`` call is reported as ``verification.run_ordered.wait_s``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

LAYERS = ("partitions", "numbers", "ring", "oracle", "identities", "verification", "cli")

# layer -> kind -> public function names
TRACED = {
    "partitions": {
        "gen": ("set_partitions", "refinements", "index_multisets"),
        "span": (
            "induced_partition",
            "blocks_within",
            "block_sum_vector",
            "block_sums",
            "block_values",
        ),
        "count": ("canonical_partition", "refines"),
    },
    "numbers": {
        "span": ("binomial", "multinomial", "falling_factorial", "alt_binomial_partial_sum", "format_rational"),
        "count": ("factorial",),
    },
    "ring": {
        "span": (
            "kappa_product",
            "basis_coeff",
            "socle_coeff",
            "correction_coeff",
            "split_weight",
            "faber_expand",
            "kappa_to_psi",
        ),
    },
    "oracle": {
        "gen": ("integer_partitions", "dimension_sequences"),
        "span": (
            "psi_integral",
            "integrate_psi_pushforward",
            "integrate_kappa_top",
            "pair_kappa_stratum",
            "pairing_system",
            "solve_exact",
            "solve_coeffs_by_pairing",
        ),
    },
    "identities": {
        "gen": ("labeled_trees",),
        "span": ("check_identity", "identity_sweep_cases", "tree_sum_oracle"),
    },
    "verification": {
        "span": (
            "check_methods_agree",
            "check_genus_lift",
            "check_top_degree",
            "check_round_trip",
            "reconcile_case",
            "summarize_reconcile",
            "pinned_product_checks",
            "determinism_spot_check",
            "run_suite",
            "run_ordered",
        ),
    },
    "cli": {"span": ("main", "emit")},
}

# Counters that depend only on the requests, not on timing.
COUNTER_SUFFIXES = (".calls", ".yielded", ".misses", ".assignments", ".rows", ".cols", ".bytes")

# Per-layer metrics with their units, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "partitions.set_partitions.yielded": "count",
    "partitions.refinements.yielded": "count",
    "partitions.canonical_partition.calls": "count",
    "partitions.refines.calls": "count",
    "partitions.set_partitions.self_s": "s",
    "partitions.refinements.self_s": "s",
    "partitions.self_s": "s",
    "numbers.factorial.calls": "count",
    "numbers.multinomial.calls": "count",
    "numbers.alt_binomial_partial_sum.calls": "count",
    "numbers.self_s": "s",
    "ring.basis_coeff.recursive.calls": "count",
    "ring.basis_coeff.recursive.self_s": "s",
    "ring.basis_coeff.ck.calls": "count",
    "ring.basis_coeff.ck.self_s": "s",
    "ring.basis_coeff.closed.calls": "count",
    "ring.basis_coeff.closed.self_s": "s",
    "ring.split_weight.calls": "count",
    "ring.split_weight.self_s": "s",
    "ring.socle_coeff.calls": "count",
    "ring.socle_coeff.misses": "count",
    "ring.correction_coeff.calls": "count",
    "ring.correction_coeff.misses": "count",
    "ring.coeff_cache.hit_ratio": "ratio",
    "ring.monomials_per_basis_coeff": "ratio",
    "ring.kappa_product.self_s": "s",
    "ring.self_s": "s",
    "oracle.pair_kappa_stratum.calls": "count",
    "oracle.pair_kappa_stratum.self_s": "s",
    "oracle.pair_kappa_stratum.assignments": "count",
    "oracle.pairing_system.rows": "count",
    "oracle.pairing_system.cols": "count",
    "oracle.pairing_system.self_s": "s",
    "oracle.solve_exact.self_s": "s",
    "oracle.integrate_kappa_top.calls": "count",
    "oracle.self_s": "s",
    "identities.check_identity.calls": "count",
    "identities.check_identity.self_s": "s",
    "identities.labeled_trees.yielded": "count",
    "identities.self_s": "s",
    "verification.check_methods_agree.calls": "count",
    "verification.check_methods_agree.self_s": "s",
    "verification.reconcile_case.self_s": "s",
    "verification.run_ordered.wait_s": "s",
    "verification.self_s": "s",
    "cli.main.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.emit.bytes": "bytes",
    "cli.self_s": "s",
}

perf = time.perf_counter


class _CountingStream:
    """Forwards writes to a text stream and counts the UTF-8 bytes written."""

    def __init__(self, inner):
        self.inner = inner
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return self.inner.write(text)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class Tracer:
    """Wraps kapparing's public functions and accumulates spans and counters."""

    def __init__(self):
        self.enabled = False
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.wait_s: dict[str, float] = defaultdict(float)
        # one frame per open span: [span name, seconds covered by child spans]
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self._cache_sizes_at_start: dict[str, int] = {}
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, args, kwargs):
        """Run fn inside a span called name and return its result."""
        stack = self._stack
        frame = [name, 0.0]
        stack.append(frame)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf() - start
            stack.pop()
            self.self_s[name] += duration - frame[1]
            self.counts[name + ".calls"] += 1
            if stack:
                stack[-1][1] += duration

    def _span(self, name, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if hook is not None:
                return hook(self, name, fn, args, kwargs)
            return self._timed(name, fn, args, kwargs)

        return wrapper

    def _gen(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not self.enabled:
                yield from inner
                return
            self.counts[name + ".calls"] += 1
            stack = self._stack
            while True:
                frame = [name, 0.0]
                stack.append(frame)
                start = perf()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    duration = perf() - start
                    stack.pop()
                    self.self_s[name] += duration - frame[1]
                    if stack:
                        stack[-1][1] += duration
                self.counts[name + ".yielded"] += 1
                yield item

        return wrapper

    def _count(self, name, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the traced functions and start counting."""
        import kapparing.cli  # noqa: F401  (load every module before patching)
        from kapparing import ring

        modules = [m for n, m in sorted(sys.modules.items()) if n == "kapparing" or n.startswith("kapparing.")]
        replacement = {}
        for layer, kinds in TRACED.items():
            home = sys.modules[f"kapparing.{layer}"]
            for kind, names in kinds.items():
                make = {"span": self._span, "gen": self._gen, "count": self._count}[kind]
                for fname in names:
                    original = getattr(home, fname)
                    replacement[id(original)] = (original, make(f"{layer}.{fname}", original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))
        self._cache_sizes_at_start = {k: len(v) for k, v in ring.snapshot_coeff_caches().items()}
        self.enabled = True

    def uninstall(self) -> None:
        """Stop counting and put the original functions back."""
        from kapparing import ring

        self.enabled = False
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        sizes = {k: len(v) for k, v in ring.snapshot_coeff_caches().items()}
        for family in ("socle", "correction"):
            self.counts[f"ring.{family}_coeff.misses"] = sizes[family] - self._cache_sizes_at_start[family]

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric in PER_LAYER_UNITS, as plain numbers."""
        counts, self_s = self.counts, self.self_s
        out: dict[str, float] = {}
        for name in PER_LAYER_UNITS:
            if name.endswith(".self_s"):
                prefix = name[: -len(".self_s")]
                if prefix in LAYERS:
                    out[name] = sum((v for k, v in self_s.items() if k.split(".", 1)[0] == prefix), 0.0)
                else:
                    out[name] = self_s.get(prefix, 0.0)
            elif name.endswith(".wait_s"):
                out[name] = self.wait_s.get(name[: -len(".wait_s")], 0.0)
            else:
                out[name] = counts.get(name, 0)
        calls = counts.get("ring.socle_coeff.calls", 0) + counts.get("ring.correction_coeff.calls", 0)
        misses = counts["ring.socle_coeff.misses"] + counts["ring.correction_coeff.misses"]
        out["ring.coeff_cache.hit_ratio"] = (calls - misses) / calls if calls else 0.0
        in_product = counts.get("ring.basis_coeff.in_product", 0)
        out["ring.monomials_per_basis_coeff"] = (
            counts.get("ring.kappa_product.monomials", 0) / in_product if in_product else 0.0
        )
        return out


# -- hooks: spans that record more than calls and self time -----------------


def _basis_coeff(tracer, name, fn, args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "closed")
    stack = tracer._stack
    if stack and stack[-1][0] == "ring.kappa_product":
        tracer.counts["ring.basis_coeff.in_product"] += 1
    return tracer._timed(f"{name}.{method}", fn, args, kwargs)


def _kappa_product(tracer, name, fn, args, kwargs):
    result = tracer._timed(name, fn, args, kwargs)
    tracer.counts[name + ".monomials"] += len(result.terms)
    return result


def _pair_kappa_stratum(tracer, name, fn, args, kwargs):
    b, dims = tuple(args[0]), tuple(args[1])
    if dims and sum(b) == sum(dims):
        tracer.counts[name + ".assignments"] += len(dims) ** len(b)
    return tracer._timed(name, fn, (b, dims), kwargs)


def _pairing_system(tracer, name, fn, args, kwargs):
    result = tracer._timed(name, fn, args, kwargs)
    rows, unknowns = result[0], result[1]
    tracer.counts[name + ".rows"] += len(rows)
    tracer.counts[name + ".cols"] += len(unknowns)
    return result


def _run_ordered(tracer, name, fn, args, kwargs):
    cases = args[1] if len(args) > 1 else kwargs["cases"]
    jobs = args[2] if len(args) > 2 else kwargs.get("jobs", 1)
    if jobs <= 1 or len(cases) <= 1:
        return tracer._timed(name, fn, args, kwargs)
    # Pooled: the workers are not traced, so the parent only waits.
    start = perf()
    try:
        return fn(*args, **kwargs)
    finally:
        duration = perf() - start
        tracer.wait_s[name] += duration
        tracer.counts[name + ".calls"] += 1
        if tracer._stack:
            tracer._stack[-1][1] += duration


def _emit(tracer, name, fn, args, kwargs):
    stream = _CountingStream(sys.stdout)
    sys.stdout = stream
    try:
        return tracer._timed(name, fn, args, kwargs)
    finally:
        sys.stdout = stream.inner
        tracer.counts[name + ".bytes"] += stream.bytes


_HOOKS = {
    "ring.basis_coeff": _basis_coeff,
    "ring.kappa_product": _kappa_product,
    "oracle.pair_kappa_stratum": _pair_kappa_stratum,
    "oracle.pairing_system": _pairing_system,
    "verification.run_ordered": _run_ordered,
    "cli.emit": _emit,
}
