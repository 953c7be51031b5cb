"""Spans around the library's layer functions, recorded by the benchmark.

The traced run replaces a layer's public function with a wrapper that
records a span — name, start, end, parent span and operation id — and,
in the count pass, the layer's work counts.  Spans stay in memory until
the run ends, when :meth:`Tracer.layer_metrics` turns them into the
per-layer metrics.  The library itself is unchanged: wrappers are installed on the
module attributes and classes the library calls through, and removed by
:meth:`Tracer.restore`.

Parents are tracked per thread, so spans opened on the query server's
executor threads nest correctly.  The operation id is the benchmark's
own operation counter; on the server, whose operations arrive
concurrently, it is ``None``, and a request span (a coroutine) has no
parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict

#: Which span names make up each layer metric (summed per operation).
LAYER_SPANS = {
    "query.parse_ms": ("query.parse",),
    "query.plan_ms": ("query.plan",),
    "query.step1_ms": ("query.step1",),
    "core.compile_ms": ("core.compile",),
    "core.approx_ms": ("core.approx",),
    "codegen.kernel_compile_ms": ("codegen.kernel_for",),
    "server.execute_ms": ("server.execute",),
    "server.codec_ms": ("server.encode", "server.decode"),
    "db.mutate_ms": ("db.update",),
}

#: Deterministic work counts, recorded by the count pass.
COUNT_KEYS = (
    "query.step1_rows",
    "core.dtree_nodes",
    "core.mutex_nodes",
    "core.approx_expansions",
    "prob.max_dist_size",
    "engine.cache_hits",
    "engine.cache_misses",
    "engine.invalidations",
    "engine.mc_distinct_worlds",
    "codegen.kernels_compiled",
    "db.rows_changed",
)


def layer_metrics(busy: dict[str, float], operations: int) -> dict[str, float]:
    """Busy milliseconds per operation for each layer, from span totals."""
    names = dict(LAYER_SPANS, **{"core.probability_ms": ("core.probability",)})
    return {
        metric: sum(busy.get(name, 0.0) for name in spans) * 1000.0 / operations
        for metric, spans in names.items()
    }


class Tracer:
    """In-memory span recorder with reversible function wrapping."""

    def __init__(self, counting: bool = False):
        #: ``(span_id, name, start, end, parent_id, op_id)`` tuples.
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.counting = counting
        self.op_id: int | None = None
        #: Worlds sampled on the per-world Monte-Carlo path, and the time.
        self.mc_worlds = 0
        self.mc_seconds = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        handed to ``after(args, kwargs, result, state)``, which runs once
        the call returned; both see the call's arguments (``self``
        first for methods) and exist to take work counts.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span_id = next(tracer._ids)
                start = time.perf_counter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.spans.append(
                        (span_id, name, start, time.perf_counter(), None, None)
                    )
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                span_id = next(tracer._ids)
                state = before(args, kwargs) if before is not None else None
                stack.append(span_id)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    tracer.spans.append(
                        (span_id, name, start, end, parent, tracer.op_id)
                    )
                if after is not None:
                    after(args, kwargs, result, state)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------

    def busy_seconds(self) -> dict[str, float]:
        """Total duration per span name, and self time of distributions.

        ``core.probability`` is the part of each ``Compiler.distribution``
        span not covered by its ``Compiler.compile`` children: the
        bottom-up ``DTree.distribution`` pass of Theorem 2.
        """
        totals: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for span_id, name, start, end, parent, _ in self.spans:
            totals[name] += end - start
            if parent is not None:
                child_time[parent] += end - start
        for span_id, name, start, end, _, _ in self.spans:
            if name == "core.distribution":
                totals["core.probability"] += (end - start) - child_time[span_id]
        return totals

    def layer_metrics(self, operations: int) -> dict[str, float]:
        """Busy milliseconds per operation for each layer metric."""
        out = layer_metrics(self.busy_seconds(), operations)
        out["engine.mc_worlds_per_s"] = (
            self.mc_worlds / self.mc_seconds if self.mc_seconds else 0.0
        )
        return out

    def count_metrics(self) -> dict[str, int]:
        return {key: int(self.counts.get(key, 0)) for key in COUNT_KEYS}


def _count_dtree(tracer: Tracer):
    from repro.core.stats import collect_stats

    def after(args, kwargs, tree, state):
        stats = collect_stats(tree)
        tracer.counts["core.dtree_nodes"] += stats.dag_size
        tracer.counts["core.mutex_nodes"] += stats.mutex_nodes
        tracer._local.last_tree = tree

    return after


def _count_dist_size(tracer: Tracer):
    from repro.core.stats import collect_stats

    def after(args, kwargs, result, state):
        # Compiler.distribution compiles first, so the tree it evaluated
        # is the last one this thread's compile span recorded.
        tree = tracer._local.last_tree
        sizes = collect_stats(tree, args[0].context).node_distribution_sizes
        if sizes:
            current = tracer.counts["prob.max_dist_size"]
            tracer.counts["prob.max_dist_size"] = max(current, max(sizes))

    return after


def install_engine_layers(tracer: Tracer) -> None:
    """Wrap the query, core, engine and codegen layer entry points."""
    import repro.engine.montecarlo as montecarlo
    import repro.engine.sprout as sprout
    import repro.session as session
    from repro.core.approx import ApproximateCompiler
    from repro.core.compile import Compiler

    counting = tracer.counting
    tracer.wrap(session, "parse_sql", "query.parse")
    tracer.wrap(sprout, "prepare", "query.plan")
    tracer.wrap(montecarlo, "prepare", "query.plan")

    def step1_rows(args, kwargs, table, state):
        tracer.counts["query.step1_rows"] += len(table)

    tracer.wrap(sprout, "execute_symbolic", "query.step1", after=step1_rows)
    tracer.wrap(
        Compiler, "compile", "core.compile",
        after=_count_dtree(tracer) if counting else None,
    )
    tracer.wrap(
        Compiler, "distribution", "core.distribution",
        after=_count_dist_size(tracer) if counting else None,
    )

    def expansions(args, kwargs, result, before):
        tracer.counts["core.approx_expansions"] += args[0].expansions - before

    tracer.wrap(
        ApproximateCompiler, "bounds", "core.approx",
        before=lambda args, kwargs: args[0].expansions,
        after=expansions,
    )

    def sample_start(args, kwargs):
        return time.perf_counter()

    def sampled(args, kwargs, result, started):
        _, batched = result
        if batched:
            return
        engine = args[0]
        samples = kwargs["samples"] if "samples" in kwargs else args[3]
        tracer.mc_worlds += samples
        tracer.mc_seconds += time.perf_counter() - started
        tracer.counts["engine.mc_distinct_worlds"] += engine.last_run_info.get(
            "distinct_worlds", 0
        )

    tracer.wrap(
        montecarlo.MonteCarloEngine, "_sampled_counts", "engine.mc_sample",
        before=sample_start, after=sampled,
    )

    def kernel_missing(args, kwargs):
        prepared, semiring = args[0], args[1]
        return ("codegen", semiring.name) not in prepared.op_cache

    def kernel_compiled(args, kwargs, result, missing):
        if missing and result is not None:
            tracer.counts["codegen.kernels_compiled"] += 1

    tracer.wrap(
        montecarlo, "kernel_for", "codegen.kernel_for",
        before=kernel_missing, after=kernel_compiled,
    )


def install_server_layers(tracer: Tracer) -> None:
    """Wrap the server-side entry points (request, codec, statements, db)."""
    import repro.server.app as app
    import repro.server.statements as statements
    from repro.db.pvc_table import PVCDatabase

    tracer.wrap(statements, "parse_sql", "query.parse")
    tracer.wrap(app.QueryServer, "execute", "server.execute")
    tracer.wrap(app.QueryServer, "mutate", "server.mutate")
    tracer.wrap(app, "result_to_json", "server.encode")

    def rows_changed(args, kwargs, rows, state):
        tracer.counts["db.rows_changed"] += rows

    tracer.wrap(PVCDatabase, "update", "db.update", after=rows_changed)
