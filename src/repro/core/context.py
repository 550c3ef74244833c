"""The unified solve context: one object carrying every cross-cutting
concern through the solver stack.

``ptas`` / ``parallel_ptas`` / ``bisect_target_makespan`` / the DP
engines all accept a single ``ctx=`` and pass it down unchanged, instead
of growing one keyword argument per cross-cutting feature.

The context bundles

* ``check_deadline`` — zero-argument cancellation hook, invoked between
  bisection probes (raises, e.g.
  :class:`repro.service.requests.DeadlineExceeded`, to abandon a solve);
* ``warm_start`` — LPT-seeded bisection bound, rounding-bucket reuse and
  probe reuse;
* ``tracer`` — the :mod:`repro.obs` span tracer (default: the no-op
  :data:`~repro.obs.trace.NULL_TRACER`, which costs nanoseconds);
* ``metrics`` — an optional metrics registry (duck-typed against
  :class:`repro.service.metrics.MetricsRegistry`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.trace import NULL_TRACER


@dataclass(frozen=True)
class SolveContext:
    """Immutable bundle of cross-cutting solve concerns.

    Construct once per solve (the service builds one per request via
    :func:`repro.service.registry.build_solve_context`) and hand the same
    object to every layer.  Derive variants with
    :func:`dataclasses.replace`.

    >>> from repro.core.context import SolveContext
    >>> ctx = SolveContext(warm_start=False)
    >>> ctx.check()          # no deadline installed: a no-op
    >>> ctx.tracer.enabled   # default tracer is the no-op singleton
    False
    """

    #: Cancellation hook invoked between bisection probes; signals by
    #: raising.  ``None`` means the solve cannot be cancelled.
    check_deadline: Callable[[], None] | None = None
    #: LPT-seeded upper bound + rounding-bucket reuse in the bisection,
    #: plus probe reuse in the PTAS drivers (see
    #: :mod:`repro.core.bisection`); the certified target is equally
    #: valid either way.
    warm_start: bool = True
    #: Optional caller-supplied upper bound for the bisection: the
    #: makespan of a *real, feasible* schedule of the same instance
    #: (e.g. a live schedule's current makespan, see
    #: :mod:`repro.online.live`).  Honoured only when ``warm_start`` is
    #: on; tightens the initial ``UB`` to ``min(Eq. 2, LPT, ub_hint)``.
    #: A value below the instance's true optimum is a caller bug — it
    #: would break the bisection's feasibility invariant.
    ub_hint: int | None = None
    #: Span tracer (:class:`repro.obs.trace.Tracer` or the no-op
    #: singleton).  Never ``None`` — use :data:`NULL_TRACER` to disable.
    tracer: Any = NULL_TRACER
    #: Optional metrics registry (duck-typed; kept out of the type system
    #: to avoid a core → service import cycle).
    metrics: Any = None

    def check(self) -> None:
        """Invoke the deadline hook, if any (raises to cancel)."""
        if self.check_deadline is not None:
            self.check_deadline()

    def span(self, kind: str, **attrs: Any):
        """Open a tracer span (no-op context manager when untraced)."""
        return self.tracer.span(kind, **attrs)

    def count(self, name: str, n: int = 1) -> None:
        """Bump a tracer counter (no-op when untraced)."""
        self.tracer.count(name, n)

    def record_metric(self, name: str, n: int = 1) -> None:
        """Bump a counter on *both* sinks: the tracer (so traced runs
        carry it into the Chrome-trace export's ``otherData.counters``)
        and the metrics registry, when one is attached (so untraced
        service requests still surface it through ``op=stats``).  Used
        for the operational counters of the parallel machinery —
        per-worker utilization, speculative-probe wins/waste."""
        self.tracer.count(name, n)
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)


#: Shared all-defaults context (warm start on, no deadline, no tracing)
#: used wherever a ``ctx=None`` argument needs resolving.
DEFAULT_CONTEXT = SolveContext()


def resolve_context(
    ctx: SolveContext | None = None, *, default: SolveContext | None = None
) -> SolveContext:
    """The effective :class:`SolveContext` of an entry point: ``ctx`` when
    given, else ``default``, else :data:`DEFAULT_CONTEXT`."""
    if ctx is not None:
        return ctx
    return default if default is not None else DEFAULT_CONTEXT
