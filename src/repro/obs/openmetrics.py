"""OpenMetrics / Prometheus text exposition of the metrics registry.

Renders :class:`~repro.obs.metrics.MetricsRegistry` counters, gauges and
histograms — plus the derived analytics gauges of
:mod:`repro.obs.analytics` — in the OpenMetrics text format, so the run
can be scraped by Prometheus or dumped once via ``repro-25d
metrics-dump``.  The job service's live ``GET /api/v1/metrics`` renders
its registry through the same :func:`render_registry`.

Mapping rules (documented because the dotted registry names are not
legal Prometheus names as-is):

* every metric name is prefixed ``repro_`` and has non-``[a-zA-Z0-9_:]``
  characters folded to ``_`` (``floorplan.efa.pruned_inferior`` ->
  ``repro_floorplan_efa_pruned_inferior``);
* counters gain the conventional ``_total`` suffix; gauges keep the bare
  name; a histogram ``h`` becomes a real Prometheus histogram family
  ``repro_h`` — cumulative ``repro_h_bucket{le="..."}`` series ending in
  ``le="+Inf"`` (equal to the count), plus ``repro_h_count`` and
  ``repro_h_sum`` — with ``repro_h_min`` / ``repro_h_max`` gauges
  alongside (the registry's streaming histograms track exact extrema,
  which buckets cannot recover); legacy value dicts without buckets
  render the count/sum/min/max subset only;
* every exposed family is preceded by its ``# TYPE`` (and ``# HELP``
  when provided) line, and the exposition ends with ``# EOF``;
* a labelled registry family renders all its label sets under that one
  header; the ``_min`` / ``_max`` extrema gauges accompany label-free
  histogram cells only;
* label values escape ``\\``, ``"`` and newlines per the spec;
* ``None`` gauge values (never set) are skipped, not rendered as NaN.

**Spawn-worker merge semantics.**  The registry being exposed is the
*parent* registry after :func:`repro.obs.merge_metrics` folded every
worker export in (see the contract in :mod:`repro.obs.metrics`): worker
counters have summed, histograms have folded, and gauges are
last-write-wins — so a scrape after a sharded run sees pool totals, while
per-worker attribution rides the labelled ``repro_shard_*`` analytics
gauges instead of per-worker metric families.

:func:`parse_exposition` is a deliberately strict self-check parser used
by the golden tests and the CI round-trip step; it is not a general
OpenMetrics client.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

from . import metrics as metrics_mod
from .analytics import analyze_report

NAME_PREFIX = "repro_"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

# ``# HELP`` text for the well-known registry families — the solvers'
# search counters and the job service's families — and the only source
# of HELP for registry exports; unknown names are exposed with TYPE only
# (HELP is optional in the format).
_HELP: Dict[str, str] = {
    "floorplan.efa.sequence_pairs_explored":
        "Sequence pairs fully explored by the EFA enumeration",
    "floorplan.efa.pruned_illegal":
        "Sequence pairs removed by the Sec. 3.1 illegal branch cut",
    "floorplan.efa.pruned_inferior":
        "Sequence pairs removed by the certified Sec. 3.2 inferior cut",
    "floorplan.efa.floorplans_evaluated":
        "Candidate floorplans scored by the HPWL estimator",
    "floorplan.efa.rejected_outline":
        "Candidates rejected by the interposer outline check",
    "floorplan.efa.lower_bound_evaluations":
        "Eq. 2 interval lower-bound evaluations",
    "floorplan.efa.certified_lower_bound":
        "Certified sequence-pair-independent lower bound on est_wl",
    "http.requests":
        "HTTP requests handled, by route template and status",
    "http.request_seconds": "HTTP request handling latency",
    "job.cpu_percent":
        "CPU utilization of the job child over the last sample interval",
    "job.rss_bytes": "Resident set size of the job child",
    "service.cache.entries": "Result-cache entries currently on disk",
    "service.cache.evictions":
        "Result-cache entries evicted (LRU or poison)",
    "service.cache.hits": "Result-cache lookups answered from disk",
    "service.cache.misses": "Result-cache lookups that ran the flow",
    "service.job.queue_wait_seconds":
        "Seconds jobs spent queued before a runner took them",
    "service.job.run_seconds":
        "Wall-clock seconds from first start to terminal",
    "service.jobs.resumed":
        "Jobs requeued to resume from checkpoint (crash or restart)",
    "service.jobs.state": "Jobs currently in each lifecycle state",
    "service.jobs.submitted": "Job submissions accepted (past design lint)",
    "service.queue.depth": "Submitted jobs waiting for a free runner",
    "service.uptime_seconds":
        "Seconds since the service metrics scope started",
}


def sanitize_name(name: str, prefix: str = NAME_PREFIX) -> str:
    """Fold a dotted registry name into a legal Prometheus name."""
    out = prefix + _SANITIZE.sub("_", str(name))
    if not _NAME_OK.match(out):
        out = prefix + "_" + _SANITIZE.sub("_", str(name))
    return out


def escape_label_value(value: Any) -> str:
    """Escape a label value per the OpenMetrics text format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def escape_help(text: str) -> str:
    """Escape a HELP string (backslash and newline only, per spec)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_value(value: Any) -> str:
    """Render a sample value; integers stay integral for readability."""
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _labels_text(labels: Optional[Mapping[str, Any]]) -> str:
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        if not _LABEL_OK.match(key):
            raise ValueError(f"illegal label name {key!r}")
        parts.append(f'{key}="{escape_label_value(labels[key])}"')
    return "{" + ",".join(parts) + "}"


# Sample-name suffixes each family kind may emit (and, symmetrically,
# the suffixes the strict parser attributes back to a declared family).
_KIND_SUFFIXES: Dict[str, Tuple[str, ...]] = {
    "counter": ("_total",),
    "gauge": ("",),
    "histogram": ("_bucket", "_count", "_sum"),
    "summary": ("_count", "_sum", ""),
    "unknown": ("",),
}


class ExpositionBuilder:
    """Accumulates OpenMetrics families and renders the text exposition.

    Families are emitted in insertion order; every sample is grouped
    under its family's single ``# TYPE`` line (the format forbids
    repeating a family), so add all samples of one family together.
    """

    def __init__(self):
        self._families: Dict[str, Tuple[str, Optional[str]]] = {}
        self._samples: Dict[str, List[str]] = {}

    def family(
        self, name: str, kind: str, help_text: Optional[str] = None
    ) -> None:
        """Declare family ``name`` (sanitized) of ``kind``."""
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unsupported family kind {kind!r}")
        known = self._families.get(name)
        if known is not None:
            if known[0] != kind:
                raise ValueError(
                    f"family {name!r} declared as both {known[0]} and {kind}"
                )
            return
        self._families[name] = (kind, help_text)
        self._samples[name] = []

    def sample(
        self,
        name: str,
        value: Any,
        labels: Optional[Mapping[str, Any]] = None,
        suffix: Optional[str] = None,
    ) -> None:
        """Add one sample to a declared family.

        ``suffix`` defaults to the kind's conventional one (``_total``
        for counters, bare for gauges); histogram families must say
        which series (``_bucket`` / ``_count`` / ``_sum``) the sample
        belongs to.
        """
        if name not in self._families:
            raise ValueError(f"family {name!r} not declared")
        kind = self._families[name][0]
        if suffix is None:
            if kind == "histogram":
                raise ValueError(
                    f"histogram family {name!r} samples need an explicit "
                    "suffix (_bucket/_count/_sum)"
                )
            suffix = "_total" if kind == "counter" else ""
        elif suffix not in _KIND_SUFFIXES[kind]:
            raise ValueError(
                f"family {name!r} ({kind}) cannot emit suffix {suffix!r}"
            )
        self._samples[name].append(
            f"{name}{suffix}{_labels_text(labels)} {_fmt_value(value)}"
        )

    def add(
        self,
        raw_name: str,
        kind: str,
        value: Any,
        labels: Optional[Mapping[str, Any]] = None,
        help_text: Optional[str] = None,
    ) -> None:
        """Declare-and-sample convenience for one-shot metrics."""
        name = sanitize_name(raw_name)
        self.family(name, kind, help_text)
        if value is not None:
            self.sample(name, value, labels)

    def render(self) -> str:
        """The full text exposition, terminated by ``# EOF``."""
        lines: List[str] = []
        for name, (kind, help_text) in self._families.items():
            if help_text:
                lines.append(f"# HELP {name} {escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
            lines.extend(self._samples[name])
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


def _fmt_le(bound: Any) -> str:
    """An ``le`` label value (``+Inf`` for the overflow bucket)."""
    number = float(bound)
    if number == float("inf"):
        return "+Inf"
    return _fmt_value(number)


def histogram_samples(
    builder: ExpositionBuilder,
    name: str,
    value: Optional[Mapping[str, Any]],
    labels: Optional[Mapping[str, Any]] = None,
) -> None:
    """Emit one histogram cell's samples into a declared family.

    Renders the cumulative ``_bucket{le=...}`` series (ending in
    ``+Inf``, which by construction equals the count) followed by
    ``_count`` and ``_sum``.  Value dicts without bucket data (legacy
    exports, or histograms merged from pre-bucket workers) emit
    count/sum only — still a valid histogram family, just bucket-less.
    """
    value = dict(value or {})
    bucket_le = list(value.get("bucket_le") or ())
    buckets = list(value.get("buckets") or ())
    count = value.get("count", 0)
    if buckets:
        cumulative = 0
        for bound, n in zip(bucket_le, buckets):
            cumulative += n
            builder.sample(
                name,
                cumulative,
                {**(labels or {}), "le": _fmt_le(bound)},
                suffix="_bucket",
            )
        for n in buckets[len(bucket_le):]:
            cumulative += n
        builder.sample(
            name,
            cumulative,
            {**(labels or {}), "le": "+Inf"},
            suffix="_bucket",
        )
    builder.sample(name, count, labels, suffix="_count")
    builder.sample(name, value.get("sum", 0.0), labels, suffix="_sum")


def add_registry_export(
    builder: ExpositionBuilder, exported: Mapping[str, Mapping[str, Any]]
) -> None:
    """Fold a typed :meth:`MetricsRegistry.export` into the builder.

    This is the single renderer both the CLI's ``metrics-dump`` and the
    service's live ``/api/v1/metrics`` endpoint go through, so family
    names and sanitization can never drift between the two.  Families
    render in the export's order, each under one ``# HELP`` (from
    :data:`_HELP`) / ``# TYPE`` header covering all its label sets.
    """
    for raw_name, entry in exported.items():
        kind = entry.get("type")
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(
                f"cannot expose metric {raw_name!r}: unknown type {kind!r}"
            )
        name = sanitize_name(raw_name)
        builder.family(name, kind, _HELP.get(raw_name))
        for labels, value in metrics_mod.export_cells(entry):
            if kind != "histogram":
                if value is not None:
                    builder.sample(name, value, labels)
                continue
            value = value or {}
            histogram_samples(builder, name, value, labels)
            # Exact extrema ride along as gauges for label-free cells.
            if value.get("count") and not labels:
                builder.add(f"{raw_name}.min", "gauge", value.get("min"))
                builder.add(f"{raw_name}.max", "gauge", value.get("max"))


def _add_analytics(
    builder: ExpositionBuilder, analytics: Mapping[str, Any]
) -> None:
    """Expose the derived analytics of :func:`analyze_report` as gauges."""
    quality = analytics.get("quality") or {}
    for key, help_text in (
        ("final_est_wl", "Final floorplan estimator wirelength"),
        ("final_twl", "Final Eq. 1 total wirelength"),
        ("certified_lower_bound", "Certified est_wl lower bound"),
        ("gap", "Relative optimality gap of est_wl over the bound"),
        ("anytime_auc", "Normalized anytime area-under-curve"),
    ):
        builder.add(
            f"quality.{key}", "gauge", quality.get(key), help_text=help_text
        )
    ttw = quality.get("time_to_within") or {}
    name = sanitize_name("quality.time_to_within_s")
    builder.family(
        name, "gauge", "Seconds to reach within <level> of the final value"
    )
    for level in sorted(ttw):
        if ttw[level] is not None:
            builder.sample(name, ttw[level], {"level": level})

    funnel = analytics.get("funnel") or {}
    stage_name = sanitize_name("funnel.stage")
    builder.family(
        stage_name, "gauge", "Pruning-funnel stage sizes (sequence pairs)"
    )
    for stage in funnel.get("stages") or []:
        builder.sample(
            stage_name, stage["count"], {"stage": stage["stage"]}
        )
    efficiency = funnel.get("cut_efficiency") or {}
    eff_name = sanitize_name("funnel.cut_efficiency")
    builder.family(
        eff_name, "gauge", "Fraction of inspected pairs each cut removed"
    )
    for cut in sorted(efficiency):
        if efficiency[cut] is not None:
            builder.sample(eff_name, efficiency[cut], {"cut": cut})

    shards = analytics.get("shards") or {}
    builder.add(
        "shard.workers", "gauge", shards.get("workers"),
        help_text="Workers that reported shard-balance telemetry",
    )
    builder.add(
        "shard.max_over_mean", "gauge", shards.get("max_over_mean"),
        help_text="Max/mean per-worker load (1.0 = perfectly balanced)",
    )
    builder.add("shard.gini", "gauge", shards.get("gini"),
                help_text="Gini coefficient of per-worker load")
    per_worker = shards.get("per_worker") or {}
    load_name = sanitize_name("shard.load")
    builder.family(
        load_name, "gauge",
        f"Per-worker load ({shards.get('field', 'pairs_explored')})",
    )
    for worker in sorted(per_worker):
        builder.sample(load_name, per_worker[worker], {"worker": worker})

    self_name = sanitize_name("span.self_seconds")
    builder.family(
        self_name, "gauge", "Self-time attribution per span path"
    )
    for row in (analytics.get("hotspots") or [])[:24]:
        builder.sample(self_name, row["self_s"], {"path": row["path"]})


def render_registry(
    registry: Optional[metrics_mod.MetricsRegistry] = None,
    analytics: Optional[Mapping[str, Any]] = None,
) -> str:
    """Text exposition of a live registry (default: the process one).

    ``analytics`` — an :func:`~repro.obs.analytics.analyze_report`
    result — appends the derived quality/funnel/shard gauges.
    """
    builder = ExpositionBuilder()
    add_registry_export(
        builder, (registry or metrics_mod.registry()).export()
    )
    if analytics:
        _add_analytics(builder, analytics)
    return builder.render()


def render_report(report: Mapping[str, Any]) -> str:
    """Text exposition of a run report's metrics plus its analytics.

    Schema-v3 reports carry typed metrics (``metrics_types``); for older
    reports the flat snapshot is exposed with inferred types — dict
    values are histogram summaries, scalars become gauges (the flat
    snapshot cannot distinguish counters, and mislabelling a gauge as a
    counter corrupts rate queries; the reverse is merely less precise).
    """
    builder = ExpositionBuilder()
    metric_values = report.get("metrics") or {}
    types = report.get("metrics_types") or {}
    exported = {}
    for name, value in metric_values.items():
        kind = types.get(name)
        if kind is None:
            kind = "histogram" if isinstance(value, dict) else "gauge"
        exported[name] = {"type": kind, "value": value}
    add_registry_export(builder, exported)
    _add_analytics(builder, analyze_report(dict(report)))
    return builder.render()


# -- self-check parser -------------------------------------------------------


def parse_exposition(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse (strictly) a text exposition produced by this module.

    Returns ``{family: {"type": ..., "help": ..., "samples":
    [(name, labels, value), ...]}}``.  Raises ``ValueError`` on format
    violations: a sample before its ``# TYPE``, a repeated family, an
    illegal metric name, a missing ``# EOF``, or anything after it.
    Histogram families are additionally semantically checked: every
    ``_bucket`` series must carry an ``le`` label, be cumulative
    (non-decreasing with increasing ``le``), terminate in an ``+Inf``
    bucket, and that ``+Inf`` bucket must equal the family's ``_count``
    sample for the same label set.  This is the round-trip check CI
    runs on every exposition.
    """
    families: Dict[str, Dict[str, Any]] = {}
    seen_eof = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if seen_eof:
            raise ValueError(f"line {lineno}: content after # EOF")
        if not line.strip():
            raise ValueError(f"line {lineno}: blank line in exposition")
        if line == "# EOF":
            seen_eof = True
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if not _NAME_OK.match(name):
                raise ValueError(f"line {lineno}: bad family name {name!r}")
            if name in families:
                raise ValueError(f"line {lineno}: family {name!r} repeated")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "unknown"):
                raise ValueError(f"line {lineno}: bad type {kind!r}")
            families[name] = {"type": kind, "help": None, "samples": []}
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unknown comment {line!r}")
        match = re.match(
            r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s+(\S+)$", line
        )
        if not match:
            raise ValueError(f"line {lineno}: unparsable sample {line!r}")
        sample_name, labels_raw, value_raw = match.groups()
        # Attribute the sample to a declared family: exact name, or the
        # family plus a suffix its declared type is allowed to emit
        # (``_total`` for counters; ``_bucket``/``_count``/``_sum`` for
        # histograms).  Longest family name wins, so ``repro_h_min``
        # (its own gauge family) never collides with histogram
        # ``repro_h``.
        family = None
        for f in sorted(families, key=len, reverse=True):
            allowed = _KIND_SUFFIXES.get(families[f]["type"], ("",))
            if sample_name == f or (
                sample_name.startswith(f)
                and sample_name[len(f):] in allowed
            ):
                family = f
                break
        if family is None:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} precedes its "
                "# TYPE declaration"
            )
        labels: Dict[str, str] = {}
        if labels_raw:
            body = labels_raw[1:-1]
            for part in _split_labels(body):
                key, _, quoted = part.partition("=")
                if not _LABEL_OK.match(key) or not (
                    quoted.startswith('"') and quoted.endswith('"')
                ):
                    raise ValueError(
                        f"line {lineno}: bad label {part!r}"
                    )
                labels[key] = (
                    quoted[1:-1]
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
        families[family]["samples"].append(
            (sample_name, labels, float(value_raw))
        )
    if not seen_eof:
        raise ValueError("exposition does not end with # EOF")
    _check_histograms(families)
    return families


def _check_histograms(families: Mapping[str, Dict[str, Any]]) -> None:
    """Semantic checks on parsed histogram families (see docstring)."""
    for family, fam in families.items():
        if fam["type"] != "histogram":
            continue
        # Group _bucket samples by their non-``le`` label set; collect
        # _count samples by full label set for the +Inf cross-check.
        series: Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]]
        series = {}
        counts: Dict[Tuple[Tuple[str, str], ...], float] = {}
        for sample_name, labels, value in fam["samples"]:
            suffix = sample_name[len(family):]
            if suffix == "_count":
                counts[tuple(sorted(labels.items()))] = value
                continue
            if suffix != "_bucket":
                continue
            le_raw = labels.get("le")
            if le_raw is None:
                raise ValueError(
                    f"histogram {family!r}: _bucket sample without le label"
                )
            le = float("inf") if le_raw == "+Inf" else float(le_raw)
            key = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            bucket = series.setdefault(key, [])
            if any(existing == le for existing, _ in bucket):
                raise ValueError(
                    f"histogram {family!r}: duplicate le={le_raw!r} bucket"
                )
            bucket.append((le, value))
        for key, bucket in series.items():
            ordered = sorted(bucket)
            if ordered[-1][0] != float("inf"):
                raise ValueError(
                    f"histogram {family!r}: bucket series missing le=\"+Inf\""
                )
            values = [v for _, v in ordered]
            if any(b < a for a, b in zip(values, values[1:])):
                raise ValueError(
                    f"histogram {family!r}: bucket counts are not cumulative"
                )
            count = counts.get(key)
            if count is not None and values[-1] != count:
                raise ValueError(
                    f"histogram {family!r}: le=\"+Inf\" bucket "
                    f"({values[-1]}) != _count ({count})"
                )


def _split_labels(body: str) -> List[str]:
    """Split a label body on commas outside quoted values."""
    parts: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for ch in body:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
            continue
        if ch == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(ch)
    if current:
        parts.append("".join(current))
    return parts
