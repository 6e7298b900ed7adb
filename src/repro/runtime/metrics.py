"""Run-wide metrics: Counter / Gauge / Histogram over the chunk road.

Span tracing (:mod:`repro.runtime.trace`) answers "what did element 17
do"; this module answers "how is the *run* doing" — aggregate counters
(chunks completed, retries, respawns, transport bytes), point-in-time
gauges (queue depths, items in flight) and fixed-bucket latency
histograms, collected into one :class:`MetricsRegistry` per run.

Process parity rides the exact road the span ledger and error ledger
already use: worker processes rebuild a local registry from
:meth:`MetricsRegistry.spec`, accumulate while executing, and
:meth:`drain` a delta after every chunk; the delta travels inside the
chunk's :class:`~repro.runtime.backend.ChunkResult` and the parent
:meth:`absorb`\\ s it.  Because a duplicated chunk (hedge loser,
respawn re-dispatch) is dropped *whole* by the collector's
first-result-wins dedup, its metric delta is dropped with it — counter
conservation (``chunks_completed - chunks_deduped = chunks_planned``,
where ``chunks_planned`` counts the descriptors the run planned to
dispatch — fixed stride or variable guided sizes alike) holds
under crash recovery without any metric-specific dedup logic.

Metrics are **off by default** and cost one ``None`` check when
disabled (gated <5% by ``benchmarks/bench_overhead.py``).  Three ways
on, mirroring tracing:

* pass a registry explicitly (``parallel_for(..., metrics=registry)``);
* open a :func:`metrics_session` — every supervised run inside records
  into the session registry (the ``repro run --metrics-out`` path);
* set the ``Metrics@...`` tuning knob; the registry is retrievable
  afterwards via :func:`last_metrics`.

Exposition: :meth:`MetricsRegistry.snapshot` is a versioned JSON
document (``repro_metrics/v1``) and :func:`to_openmetrics` renders a
snapshot as OpenMetrics v1 text (``# TYPE``/``# HELP`` framing,
``_total``/``_bucket``/``_sum``/``_count`` sample suffixes, ``# EOF``
terminator).  :func:`parse_openmetrics` round-trips the samples, so CI
can assert exports without a Prometheus install.

Kept stdlib-only, importing within the runtime package only the
stdlib-only :mod:`repro.runtime.observe`, so every runtime module can
use it without cycles.
"""

from __future__ import annotations

import bisect
import re
import threading
import time
from typing import Any, ContextManager, Iterable

from repro.runtime.faults import OUTCOME_COUNTERS
from repro.runtime.observe import Channel

#: the JSON snapshot schema tag
SNAPSHOT_SCHEMA = "repro_metrics/v1"

#: every exported family is prefixed with this namespace
NAMESPACE = "repro"

#: fixed log-linear histogram edges (seconds): a 1-2-5 series per
#: decade from 100µs to 50s.  Fixed buckets make worker-side histograms
#: mergeable by plain element-wise addition — no rebinning on absorb.
LOG_LINEAR_EDGES = tuple(
    m * (10.0 ** e) for e in range(-4, 2) for m in (1.0, 2.0, 5.0)
)

_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


def _labels_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (thread-safe via registry lock)."""

    kind = "counter"

    __slots__ = ("value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self.value = 0
        self._lock = lock

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        with self._lock:
            self.value += n


class Gauge:
    """A point-in-time value (queue depth, items in flight)."""

    kind = "gauge"

    __slots__ = ("value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self.value = 0
        self._lock = lock

    def set(self, v: int | float) -> None:
        with self._lock:
            self.value = v

    def inc(self, n: int | float = 1) -> None:
        with self._lock:
            self.value += n

    def dec(self, n: int | float = 1) -> None:
        with self._lock:
            self.value -= n


class Histogram:
    """Fixed-bucket distribution; mergeable by element-wise addition."""

    kind = "histogram"

    __slots__ = ("edges", "buckets", "sum", "count", "_lock")

    def __init__(
        self,
        lock: threading.Lock,
        edges: tuple[float, ...] = LOG_LINEAR_EDGES,
    ) -> None:
        self.edges = tuple(edges)
        if list(self.edges) != sorted(self.edges):
            raise ValueError("histogram edges must be ascending")
        self.buckets = [0] * (len(self.edges) + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0
        self._lock = lock

    def observe(self, v: float) -> None:
        # the first edge >= v; past the last edge is the +Inf bucket
        i = bisect.bisect_left(self.edges, v)
        with self._lock:
            self.sum += v
            self.count += 1
            self.buckets[i] += 1


class MetricsRegistry:
    """One run's metric families, keyed by ``(name, labels)`` series.

    A single registry lock covers every series: metric updates are a
    couple of arithmetic ops, so finer-grained locking buys nothing,
    and one lock keeps :meth:`drain`/:meth:`absorb`/:meth:`snapshot`
    trivially consistent.
    """

    def __init__(self, namespace: str = NAMESPACE) -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        #: (name, labels_key) -> metric object
        self._series: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}
        #: name -> kind, enforced across label sets
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}
        #: (monotonic, epoch) pair anchoring monotonic readings to the
        #: wall clock; carried through spec() so worker snapshots agree
        self.anchor: tuple[float, float] = (time.monotonic(), time.time())

    # ------------------------------------------------------------------
    # family accessors
    # ------------------------------------------------------------------
    def _get(
        self,
        cls: type,
        name: str,
        help: str,
        labels: dict[str, str],
        **kwargs: Any,
    ) -> Any:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        key = (name, _labels_key(labels))
        with self._lock:
            metric = self._series.get(key)
            if metric is None:
                kind = self._kinds.get(name)
                if kind is not None and kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {kind}, "
                        f"not {cls.kind}"
                    )
                metric = self._series[key] = cls(self._lock, **kwargs)
                self._kinds[name] = cls.kind
                if help and name not in self._help:
                    self._help[name] = help
            return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        edges: tuple[float, ...] = LOG_LINEAR_EDGES,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, edges=edges)

    # convenience: one-shot counter bump without holding the object
    def inc(self, name: str, n: int | float = 1, **labels: str) -> None:
        self.counter(name, **labels).inc(n)

    def value(self, name: str, **labels: str) -> int | float:
        """A series' current value (0 for a never-touched series)."""
        key = (name, _labels_key(labels))
        with self._lock:
            metric = self._series.get(key)
        if metric is None:
            return 0
        if isinstance(metric, Histogram):
            return metric.count
        return metric.value

    def total(self, name: str) -> int | float:
        """Sum of a counter family across all label sets."""
        with self._lock:
            return sum(
                m.value
                for (n, _k), m in self._series.items()
                if n == name and isinstance(m, (Counter, Gauge))
            )

    def label_values(self, name: str, label: str) -> list[str]:
        """Distinct values of one label across a family's series."""
        with self._lock:
            return sorted(
                {
                    v
                    for (n, lkey), _m in self._series.items()
                    if n == name
                    for k, v in lkey
                    if k == label
                }
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    # ------------------------------------------------------------------
    # process parity: worker-side collection, chunked IPC merge
    # ------------------------------------------------------------------
    def spec(self) -> dict[str, Any]:
        """Picklable constructor arguments for a worker-side rebuild."""
        return {"namespace": self.namespace, "anchor": self.anchor}

    @classmethod
    def from_spec(cls, spec: dict[str, Any]) -> "MetricsRegistry":
        reg = cls(namespace=spec.get("namespace", NAMESPACE))
        anchor = spec.get("anchor")
        if anchor is not None:
            reg.anchor = (float(anchor[0]), float(anchor[1]))
        return reg

    def drain(self) -> list[tuple] | None:
        """Pop every series as a picklable delta; reset counts to zero.

        The worker-side half of the chunked merge: called after each
        chunk so metric payloads stay bounded by what one chunk did.
        Gauges ship their current value (merged last-wins) and are not
        reset — a worker gauge is a statement of current state, not an
        increment.  Returns ``None`` when nothing was recorded.
        """
        out: list[tuple] = []
        with self._lock:
            for (name, lkey), m in self._series.items():
                if isinstance(m, Counter):
                    if m.value:
                        out.append(("c", name, lkey, m.value))
                        m.value = 0
                elif isinstance(m, Gauge):
                    out.append(("g", name, lkey, m.value))
                elif m.count:
                    out.append(
                        ("h", name, lkey, m.edges, list(m.buckets),
                         m.sum, m.count)
                    )
                    m.buckets = [0] * (len(m.edges) + 1)
                    m.sum = 0.0
                    m.count = 0
        return out or None

    def absorb(self, delta: Iterable[tuple] | None) -> None:
        """Fold a worker's drained delta into this (parent) registry."""
        if not delta:
            return
        for entry in delta:
            kind, name, lkey = entry[0], entry[1], entry[2]
            labels = dict(lkey)
            if kind == "c":
                self.counter(name, **labels).inc(entry[3])
            elif kind == "g":
                self.gauge(name, **labels).set(entry[3])
            elif kind == "h":
                _k, _n, _l, edges, buckets, total, count = entry
                h = self.histogram(name, edges=tuple(edges), **labels)
                with self._lock:
                    if tuple(edges) != h.edges:  # pragma: no cover
                        raise ValueError(
                            f"histogram {name!r} edge mismatch on absorb"
                        )
                    for i, b in enumerate(buckets):
                        h.buckets[i] += b
                    h.sum += total
                    h.count += count
            else:  # pragma: no cover - future-proofing
                raise ValueError(f"unknown metric delta kind {kind!r}")

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A self-contained, JSON-safe view of every series.

        ``time`` is a real epoch timestamp derived from the registry's
        clock anchor (``anchor_epoch + (monotonic_now - anchor_mono)``)
        so snapshots order correctly across processes sharing a spec.
        """
        mono0, epoch0 = self.anchor
        with self._lock:
            families: dict[str, dict[str, Any]] = {}
            for (name, lkey), m in sorted(self._series.items()):
                fam = families.setdefault(
                    name,
                    {
                        "name": name,
                        "kind": self._kinds[name],
                        "help": self._help.get(name, ""),
                        "series": [],
                    },
                )
                series: dict[str, Any] = {"labels": dict(lkey)}
                if isinstance(m, Histogram):
                    series["edges"] = list(m.edges)
                    series["buckets"] = list(m.buckets)
                    series["sum"] = m.sum
                    series["count"] = m.count
                else:
                    series["value"] = m.value
                fam["series"].append(series)
        return {
            "schema": SNAPSHOT_SCHEMA,
            "namespace": self.namespace,
            "anchor": {"monotonic": mono0, "epoch": epoch0},
            "time": epoch0 + (time.monotonic() - mono0),
            "metrics": list(families.values()),
        }

    @classmethod
    def from_snapshot(cls, snap: dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output (round-trip)."""
        schema = snap.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"not a metrics snapshot (schema={schema!r}, "
                f"expected {SNAPSHOT_SCHEMA!r})"
            )
        reg = cls(namespace=snap.get("namespace", NAMESPACE))
        anchor = snap.get("anchor") or {}
        if anchor:
            reg.anchor = (
                float(anchor.get("monotonic", 0.0)),
                float(anchor.get("epoch", 0.0)),
            )
        for fam in snap.get("metrics", ()):
            name, kind = fam["name"], fam["kind"]
            reg._help.setdefault(name, fam.get("help", ""))
            for series in fam.get("series", ()):
                labels = dict(series.get("labels") or {})
                if kind == "counter":
                    reg.counter(name, **labels).inc(series["value"])
                elif kind == "gauge":
                    reg.gauge(name, **labels).set(series["value"])
                else:
                    h = reg.histogram(
                        name, edges=tuple(series["edges"]), **labels
                    )
                    h.buckets = list(series["buckets"])
                    h.sum = float(series["sum"])
                    h.count = int(series["count"])
        return reg


# ---------------------------------------------------------------------------
# OpenMetrics v1 text exposition
# ---------------------------------------------------------------------------

def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(labels: dict[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _num(v: int | float) -> str:
    if isinstance(v, float) and v == float("inf"):
        return "+Inf"
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return repr(v) if isinstance(v, float) else str(v)


def to_openmetrics(snap: dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as OpenMetrics v1 text.

    Counter samples carry the mandatory ``_total`` suffix, histograms
    expand to cumulative ``_bucket{le=...}`` plus ``_sum``/``_count``,
    and the exposition ends with the ``# EOF`` terminator the format
    requires.
    """
    ns = snap.get("namespace", NAMESPACE)
    lines: list[str] = []
    for fam in snap.get("metrics", ()):
        name, kind = fam["name"], fam["kind"]
        full = f"{ns}_{name}"
        lines.append(f"# TYPE {full} {kind}")
        if fam.get("help"):
            lines.append(f"# HELP {full} {_escape(fam['help'])}")
        for series in fam.get("series", ()):
            labels = dict(series.get("labels") or {})
            if kind == "counter":
                lines.append(
                    f"{full}_total{_render_labels(labels)} "
                    f"{_num(series['value'])}"
                )
            elif kind == "gauge":
                lines.append(
                    f"{full}{_render_labels(labels)} {_num(series['value'])}"
                )
            else:
                cumulative = 0
                for edge, b in zip(
                    list(series["edges"]) + [float("inf")],
                    series["buckets"],
                ):
                    cumulative += b
                    le = _render_labels(labels, f'le="{_num(float(edge))}"')
                    lines.append(f"{full}_bucket{le} {cumulative}")
                lbl = _render_labels(labels)
                lines.append(f"{full}_sum{lbl} {_num(series['sum'])}")
                lines.append(f"{full}_count{lbl} {_num(series['count'])}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?P<labels>\{[^}]*\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_openmetrics(text: str) -> dict[str, float]:
    """``{sample_name{labels}: value}`` for an OpenMetrics exposition.

    A deliberately small parser — enough for tests and CI to assert an
    export round-trips — that still validates the structural rules:
    samples must follow a ``# TYPE`` line for their family and the
    exposition must end with ``# EOF``.
    """
    lines = text.strip().splitlines()
    if not lines or lines[-1].strip() != "# EOF":
        raise ValueError("OpenMetrics exposition must end with # EOF")
    typed: set[str] = set()
    samples: dict[str, float] = {}
    for line in lines[:-1]:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 3 and parts[1] == "TYPE":
                typed.add(parts[2])
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"unparseable sample line: {line!r}")
        name = m.group("name")
        base = re.sub(r"_(total|bucket|sum|count)$", "", name)
        if base not in typed and name not in typed:
            raise ValueError(f"sample {name!r} has no # TYPE declaration")
        raw = m.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        labels = ""
        if m.group("labels"):
            inner = sorted(_LABEL_RE.findall(m.group("labels")))
            labels = (
                "{" + ",".join(f'{k}="{v}"' for k, v in inner) + "}"
            )
        samples[name + labels] = value
    return samples


# ---------------------------------------------------------------------------
# shared accounting helpers (backend parity)
# ---------------------------------------------------------------------------

#: each element counter's metric, on every road
_COUNTER_TO_METRIC = {
    "delivered": "elements_delivered",
    "retried": "element_retries",
    "skipped": "elements_skipped",
    "fallbacks": "elements_fallback",
    "failed": "elements_failed",
}


def count_outcome(
    registry: "MetricsRegistry",
    stage: str,
    action: str,
    retried: int = 0,
) -> None:
    """Account one element outcome (the pipeline stage road) through
    :data:`repro.runtime.faults.OUTCOME_COUNTERS`, the table that counts
    a map chunk's ``counters`` too: a stage and a loop count alike."""
    if retried:
        registry.inc("element_retries", retried, stage=stage)
    for key in OUTCOME_COUNTERS[action]:
        registry.inc(_COUNTER_TO_METRIC[key], stage=stage)


class StageSeries:
    """One run's ``stage``-labelled series, each looked up once.

    The chunk executors count per chunk, and a registry lookup (a label
    sort and a name check) costs more than the update itself.  Each
    series is bound on its first non-zero use, so no zero-valued series
    appears, and later updates go straight to the bound object.
    """

    __slots__ = ("registry", "stage", "_bound")

    def __init__(self, registry: "MetricsRegistry", stage: str) -> None:
        self.registry = registry
        self.stage = stage
        self._bound: dict[str, Any] = {}

    def inc(self, name: str, n: int | float = 1) -> None:
        if n:
            counter = self._bound.get(name)
            if counter is None:
                counter = self._bound[name] = self.registry.counter(
                    name, stage=self.stage
                )
            counter.inc(n)

    def observe(self, name: str, value: float) -> None:
        histogram = self._bound.get(name)
        if histogram is None:
            histogram = self._bound[name] = self.registry.histogram(
                name, stage=self.stage
            )
        histogram.observe(value)

    def count_chunk(self, counters: dict[str, int]) -> None:
        """Account a chunk's ``counters`` dict (every executor's delivery)."""
        for key, value in counters.items():
            if value:
                self.inc(_COUNTER_TO_METRIC[key], value)


# ---------------------------------------------------------------------------
# the session channel (the --metrics-out CLI path)
# ---------------------------------------------------------------------------

_CHANNEL = Channel(MetricsRegistry)
active_registry = _CHANNEL.active
set_last_metrics = _CHANNEL.set_last
last_metrics = _CHANNEL.last


def metrics_session(
    registry: MetricsRegistry | None = None,
) -> ContextManager[MetricsRegistry]:
    """Context manager: every supervised run inside records metrics.

    Sessions nest (innermost wins) and are process-wide, not
    thread-local — stage workers spawned by a measured run must see the
    registry.
    """
    return _CHANNEL.session(registry)


def resolve_registry(
    explicit: "MetricsRegistry | None", enabled: bool = False
) -> MetricsRegistry | None:
    """The registry a run should record into.

    Priority: an explicitly passed registry, then the active session,
    then — only when the component's ``Metrics@...`` knob is on — a
    fresh registry (published via :func:`set_last_metrics`).  Returns
    ``None`` when metrics are off: the disabled path is one ``is None``
    check.
    """
    return _CHANNEL.resolve(explicit, enabled)
