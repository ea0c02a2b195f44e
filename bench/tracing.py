"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces public driftkit functions with timing wrappers at the
module attribute their caller looks them up through (``cli.ingest`` rather
than ``events.ingest``, because ``cli`` imported the name), so the program
itself carries no instrumentation. Each span records name, layer, start,
end, parent span and op id; spans stay in a list until ``write_spans``.
A span's self time is its duration minus the durations of its children.

The ingest iterator is timed in batches: each batch of rows is pulled from
the program's generator inside its own span, then handed to the consumer,
so row parsing and tallying land in separate spans.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from itertools import islice
from pathlib import Path

INGEST_BATCH = 4096

# (module, attribute, layer): every hook the traced run installs.
HOOKS = (
    ("cli", "ingest", "events"),
    ("cli", "aggregate", "popularity"),
    ("cli", "restrict_top_k", "popularity"),
    ("analysis", "normalize", "popularity"),
    ("estimators", "normalize", "popularity"),
    ("canon", "canonicalize", "canon"),
    ("analysis", "divergence_of", "divergence"),
    ("estimators", "divergence_of", "divergence"),
    ("analysis", "jsd_with_contributions", "divergence"),
    ("analysis", "bootstrap_divergence", "estimators"),
    ("estimators", "plugin_divergence", "estimators"),
    ("analysis", "local_drift", "analysis"),
    ("analysis", "global_drift", "analysis"),
    ("analysis", "drift_matrix", "analysis"),
    ("analysis", "build_group_schedule", "analysis"),
    ("analysis", "transition_matrix", "analysis"),
    ("analysis", "trajectory_panel", "analysis"),
    ("analysis", "contribution_groups", "analysis"),
    ("analysis", "_evaluate", "analysis"),
    ("forecast", "predict_drift", "forecast"),
    ("forecast", "score", "forecast"),
    ("tabular", "read_items_table", "tabular"),
)

LAYERS = (
    "cli",
    "events",
    "canon",
    "popularity",
    "divergence",
    "estimators",
    "analysis",
    "forecast",
    "tabular",
)


def _probs(dist):
    return getattr(dist, "probs", dist)


def _union_size(p, q) -> int:
    p, q = _probs(p), _probs(q)
    return len(p) + sum(1 for k in q if k not in p)


class Tracer:
    """Collects spans and per-layer counters while hooks are installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.ingest_reports: list = []
        self.missing_hooks: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op_id = 0

    # span bookkeeping ---------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.op_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        end = time.perf_counter()
        span = self.spans[idx]
        span[3] = end
        self._stack.pop()
        return end - span[2]

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        idx = self._open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # hooks --------------------------------------------------------------------

    def install(self, modules: dict):
        """Wrap every hook target; ``modules`` maps short names to module objects."""
        targets = list(HOOKS)
        targets += [
            ("tabular", name, "tabular")
            for name in sorted(vars(modules["tabular"]))
            if name.startswith("write_")
        ]
        for mod_name, attr, layer in targets:
            module = modules[mod_name]
            original = getattr(module, attr, None)
            if original is None:
                if f"{mod_name}.{attr}" not in self.missing_hooks:
                    self.missing_hooks.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(attr, layer, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrapper(self, attr: str, layer: str, fn):
        name = f"{layer}.{attr}"
        extra = getattr(self, f"_after_{attr}", None)
        if attr.startswith("write_"):
            extra = self._after_write

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._close(idx)
            if extra is not None:
                result = extra(duration, result, *args, **kwargs)
            return result

        return wrapped

    # per-hook counters, computed outside the span -------------------------------

    def _after_ingest(self, duration, result, *args, **kwargs):
        stream, report = result
        self.ingest_reports.append(report)
        return self._batched(stream), report

    def _batched(self, stream):
        while True:
            idx = self._open("events.batch", "events")
            try:
                batch = list(islice(stream, INGEST_BATCH))
            finally:
                self._close(idx)
            if not batch:
                return
            yield from batch

    def _after_aggregate(self, duration, result, *args, **kwargs):
        self.counts["popularity.events_seen"] += result[1].events_seen
        return result

    def _after_restrict_top_k(self, duration, result, dists, *args, **kwargs):
        self.counts["popularity.restrict_calls"] += 1
        self.counts["popularity.loans_in"] += sum(d.total for d in dists)
        self.counts["popularity.loans_kept"] += sum(d.total for d in result)
        keys = set()
        for d in dists:
            keys.update(d.counts)
        self.counts["popularity.distinct_items"] += len(keys)
        return result

    def _after_canonicalize(self, duration, result, rows, *args, **kwargs):
        self.counts["canon.items"] += len(rows)
        self.counts["canon.groups"] += result.n_canonical
        return result

    def _after_divergence_of(self, duration, result, measure, P, Q, *args, **kwargs):
        self._divergence_call(duration, P, Q)
        return result

    def _after_jsd_with_contributions(self, duration, result, P, Q, *args, **kwargs):
        self._divergence_call(duration, P, Q)
        return result

    def _divergence_call(self, duration, P, Q):
        self.samples["divergence.call_s"].append(duration)
        self.counts["divergence.union_items"] += _union_size(P, Q)

    def _after_bootstrap_divergence(self, duration, result, *args, **kwargs):
        self.counts["estimators.resamples"] += result.n_resamples
        return result

    def _after__evaluate(self, duration, result, *args, **kwargs):
        self.samples["analysis.pair_s"].append(duration)
        return result

    def _after_write(self, duration, result, *args, **kwargs):
        for arg in args:
            if isinstance(arg, Path) and arg.exists():
                self.counts["tabular.bytes_written"] += arg.stat().st_size
        return result

    # reduction ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        child_total = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, child_total)]

    def layer_table(self) -> dict[str, dict]:
        """Self time and span count per layer."""
        table = {}
        for span, own in zip(self.spans, self.self_times()):
            row = table.setdefault(span[1], {"spans": 0, "self_s": 0.0})
            row["spans"] += 1
            row["self_s"] += own
        return table

    def total(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[0] == name)

    def self_total(self, name: str) -> float:
        return sum(own for s, own in zip(self.spans, self.self_times()) if s[0] == name)

    def layer_self_under(self, root_name: str, layer: str) -> float:
        """Self time of ``layer`` spans inside (and including) every ``root_name`` span."""
        own = self.self_times()
        inside = [False] * len(self.spans)
        total = 0.0
        for i, span in enumerate(self.spans):
            parent = span[4]
            inside[i] = span[0] == root_name or (parent >= 0 and inside[parent])
            if inside[i] and span[1] == layer:
                total += own[i]
        return total

    def write_spans(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, op_id in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op_id,
                        }
                    )
                    + "\n"
                )


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest whole percentile with at least ten samples beyond it, and its value.

    None below 20 samples, where that percentile would fall under the median.
    """
    n = len(values)
    if n < 20:
        return None
    q = math.floor(100.0 * (1.0 - 10.0 / n))
    return q, percentile(values, q)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics from one or more traced passes; counts are per pass."""
    per = 1.0 / max(passes, 1)
    c = tracer.counts
    rows = sum(r.rows for r in tracer.ingest_reports)
    events_s = tracer.total("events.ingest") + tracer.total("events.batch")
    div = tracer.samples["divergence.call_s"]
    pairs = tracer.samples["analysis.pair_s"]
    n_div = len(div)
    restrict_calls = c["popularity.restrict_calls"]
    return {
        "events.us_per_row": _ratio(events_s, rows, 1e6),
        "events.rows": rows * per,
        "events.malformed": sum(r.malformed for r in tracer.ingest_reports) * per,
        "events.accepted_ratio": _ratio(sum(r.accepted for r in tracer.ingest_reports), rows),
        "popularity.us_per_event": _ratio(
            tracer.self_total("popularity.aggregate"), c["popularity.events_seen"], 1e6
        ),
        "canon.us_per_item": _ratio(tracer.total("canon.canonicalize"), c["canon.items"], 1e6),
        "canon.items": c["canon.items"] * per,
        "canon.groups": c["canon.groups"] * per,
        "popularity.restrict_top_k_s": tracer.total("popularity.restrict_top_k") * per,
        "popularity.kept_loan_ratio": _ratio(c["popularity.loans_kept"], c["popularity.loans_in"]),
        "popularity.distinct_items": _ratio(c["popularity.distinct_items"], restrict_calls),
        "divergence.calls": n_div * per,
        "divergence.ms_per_call_p50": 1e3 * percentile(div, 50),
        "divergence.ms_per_call_p90": 1e3 * percentile(div, 90),
        "divergence.union_items": _ratio(c["divergence.union_items"], n_div),
        "divergence.bytes_computed": c["divergence.union_items"] * 8 * 3 * per,
        "analysis.ms_per_pair_p50": 1e3 * percentile(pairs, 50),
        "analysis.ms_per_pair_p90": 1e3 * percentile(pairs, 90),
        "analysis.pairs": len(pairs) * per,
        "analysis.matrix_self_s": tracer.layer_self_under("analysis.drift_matrix", "analysis") * per,
        "analysis.schedule_s": tracer.total("analysis.build_group_schedule") * per,
        "analysis.transition_s": tracer.total("analysis.transition_matrix") * per,
        "analysis.trajectory_s": tracer.total("analysis.trajectory_panel") * per,
        "estimators.ms_per_resample": _ratio(
            tracer.self_total("estimators.bootstrap_divergence"), c["estimators.resamples"], 1e3
        ),
        "estimators.resamples": c["estimators.resamples"] * per,
        "estimators.plugin_s": tracer.total("estimators.plugin_divergence") * per,
        "forecast.predict_score_s": (
            tracer.total("forecast.predict_drift") + tracer.total("forecast.score")
        )
        * per,
        "tabular.write_s": sum(
            s[3] - s[2] for s in tracer.spans if s[0].startswith("tabular.write_")
        )
        * per,
        "tabular.bytes_written": c["tabular.bytes_written"] * per,
    }


def timing_table(tracer: Tracer) -> dict[str, dict]:
    """Per-call timing families: sample count, p50 and the tail percentile."""
    table = {}
    for family, values in sorted(tracer.samples.items()):
        tail = tail_percentile(values)
        table[family] = {
            "n": len(values),
            "p50_ms": 1e3 * percentile(values, 50),
            "tail_percentile": tail[0] if tail else None,
            "tail_ms": 1e3 * tail[1] if tail else None,
        }
    return table


def format_layer_table(tracer: Tracer, wall_s: float) -> str:
    table = tracer.layer_table()
    lines = [f"{'layer':<12} {'spans':>8} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS:
        row = table.get(layer, {"spans": 0, "self_s": 0.0})
        share = row["self_s"] / wall_s if wall_s else 0.0
        lines.append(f"{layer:<12} {row['spans']:>8d} {row['self_s']:>10.4f} {share:>7.1%}")
    if tracer.missing_hooks:
        lines.append("hooks not found (a failed check): " + ", ".join(tracer.missing_hooks))
    return "\n".join(lines)


def write_report(tracer: Tracer, out_dir: Path, wall_s: float) -> str:
    """Write spans.jsonl and trace_table.json; return the printable layer table."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(out_dir / "spans.jsonl")
    text = format_layer_table(tracer, wall_s)
    summary = {
        "traced_wall_s": wall_s,
        "layers": tracer.layer_table(),
        "per_call": timing_table(tracer),
        "missing_hooks": tracer.missing_hooks,
    }
    (out_dir / "trace_table.json").write_text(json.dumps(summary, indent=2) + "\n")
    return text


def driftkit_modules() -> dict:
    import driftkit.analysis as analysis
    import driftkit.canon as canon
    import driftkit.cli as cli
    import driftkit.estimators as estimators
    import driftkit.forecast as forecast
    import driftkit.tabular as tabular

    return {
        "analysis": analysis,
        "canon": canon,
        "cli": cli,
        "estimators": estimators,
        "forecast": forecast,
        "tabular": tabular,
    }
