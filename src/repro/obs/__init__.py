"""Unified observability: structured tracing + a metrics registry.

The instrumentation layer behind the paper's Figure 3 profile and
Section V scaling analysis, shared by every subsystem:

* :mod:`repro.obs.tracer` — span/instant events with per-rank tracks
  and a Chrome trace-event exporter (``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.metrics` — named counters/gauges/histograms that
  absorb the legacy ad-hoc stats objects behind one read API;
* :mod:`repro.obs.callback` — the engine hook wiring both into
  :class:`~repro.core.engine.TrainingEngine`;
* :mod:`repro.obs.summarize` — ``repro trace summarize``'s
  Figure-3-style stage table from an exported trace file.

See ``docs/observability.md`` for how to capture and read a trace.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy(__name__, {
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "tracer": ("NULL_TRACER", "NullTracer", "TraceEvent", "Tracer"),
    "callback": ("TraceCallback",),
    "summarize": ("TraceSummary", "format_summary", "load_trace", "summarize_trace"),
})
