"""Command-line front end: ingestion, canonicalization, drift analyses, outputs.

Exit codes: 0 success, 1 usage or configuration error, 2 data error.
Default knobs are month bins, top-K 10,000 (0 disables), plugin
estimation with an optional 500-resample bootstrap, and JSD in bits. One root
seed drives every random choice, so identical inputs and flags give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import analysis, canon, forecast, synthmarket, tabular
from .config import (
    DEFAULT_TOP_K,
    ConfigError,
    RunConfig,
    build_config,
    load_config,
    parse_date,
)
from .events import IngestError, ingest
from .popularity import aggregate, restrict_top_k


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); our contract says 1
        raise UsageError(message)


def _add_common(parser: argparse.ArgumentParser, all_items: bool = False):
    """Add the run options every analysis subcommand shares.

    Each option's dest is recorded as a config key, so every flag added here
    reaches build_config as an override. A subcommand with ``all_items``
    spans every item with loans, so it rejects --top-k (and the top_k key).
    """
    parser.add_argument("--config", help="key = value config file; flags override it")
    keys = []

    def add(*flags, **kwargs):
        keys.append(parser.add_argument(*flags, **kwargs).dest)

    add("--input", help="event log CSV")
    add("--catalog", help="item_key,canonical_id mapping from `canon`")
    add("--output-dir", dest="output_dir", help="output directory")
    add("--granularity", choices=("week", "month", "quarter"))
    add("--window-start", dest="window_start")
    add("--window-end", dest="window_end")
    add(
        "--exclude",
        action="append",
        default=None,
        metavar="START:END",
        help="date range to drop (repeatable), e.g. lockdown months",
    )
    add("--sex")
    add("--education")
    add("--residence")
    add("--category", help="comma-separated category filter")
    add("--age-range", dest="age_range", metavar="LO-HI")
    add(
        "--age-bins",
        dest="age_bins",
        metavar="LO-HI,...",
        help="cohort age bands for per-age sweeps (default 0-18,18-30,30-46,46-65,65-)",
    )
    add("--measure", choices=("jsd", "jsd_alpha", "jaccard"))
    add("--alpha", type=float)
    add("--estimator", choices=("plugin", "bootstrap"))
    add("--resamples", type=int, help="bootstrap resamples (default 500)")
    add("--seed", type=int, help="root seed for all randomness")
    add(
        "--top-k",
        dest="top_k",
        type=int,
        help=(
            "not accepted: this subcommand spans all items"
            if all_items
            else f"restrict to the K most loaned items (default {DEFAULT_TOP_K}, 0 disables)"
        ),
    )
    add(
        "--max-malformed-fraction", dest="max_malformed_fraction", type=float
    )
    parser.set_defaults(config_keys=tuple(keys), all_items=all_items)


def _config_from_args(args) -> RunConfig:
    raw = load_config(args.config) if args.config else {}
    unknown = [k for k in raw if k not in args.config_keys]
    if unknown:
        raise ConfigError(f"{args.config}: unknown config keys: {', '.join(unknown)}")
    overrides = {k: getattr(args, k) for k in args.config_keys}
    if args.all_items:
        if overrides["top_k"] is not None or "top_k" in raw:
            raise UsageError(
                f"{args.subcommand} spans all items; --top-k (config key top_k) is not accepted"
            )
        overrides["top_k"] = 0
    return build_config(raw, overrides)


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output dir {out}: {exc}") from exc
    return out


def _load_catalog(path: Path) -> canon.CanonicalCatalog:
    mapping = {}
    try:
        import csv as _csv

        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row in _csv.DictReader(fh):
                mapping[row["item_key"]] = row["canonical_id"]
    except (OSError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read catalog {path}: {exc}") from exc
    groups: dict[str, list[str]] = {}
    for key, cid in mapping.items():
        groups.setdefault(cid, []).append(key)
    return canon.CanonicalCatalog(mapping, groups)


def _load_distributions(cfg: RunConfig):
    if cfg.input is None:
        raise UsageError("an input event log is required (--input or config `input`)")
    catalog = _load_catalog(cfg.catalog) if cfg.catalog else None
    stream, ingest_report = ingest(
        cfg.input,
        window=cfg.window,
        exclude=cfg.exclude,
        max_malformed_fraction=cfg.max_malformed_fraction,
    )
    dists, agg_report = aggregate(stream, cfg.granularity, cfg.cohort, catalog)
    if not dists:
        raise DataError("no events matched the window and cohort filters")
    if cfg.top_k:
        dists = restrict_top_k(dists, cfg.top_k)
    reports = {"ingest": ingest_report.as_dict(), "unknown_keys": agg_report.unknown_keys}
    return dists, reports


def _write_manifest(cfg: RunConfig, out: Path, subcommand: str, outputs: list[Path], extra=None):
    config_dict = cfg.as_dict()
    if extra:
        config_dict["run"] = extra
    tabular.write_manifest(
        out / "manifest.json", subcommand, config_dict, [p.name for p in outputs]
    )


# Subcommands ------------------------------------------------------------------


def cmd_ingest_check(args) -> int:
    cfg = _config_from_args(args)
    if cfg.input is None:
        raise UsageError("an input event log is required")
    stream, report = ingest(
        cfg.input,
        window=cfg.window,
        exclude=cfg.exclude,
        max_malformed_fraction=cfg.max_malformed_fraction,
    )
    try:
        for _ in stream:
            pass
    finally:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0


def cmd_canon(args) -> int:
    items = tabular.read_items_table(Path(args.items))
    catalog = canon.canonicalize(items, window=args.window, max_edit=args.max_edit)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tabular.write_mapping(out, catalog.mapping)
    print(f"{catalog.n_items} items -> {catalog.n_canonical} canonical items ({out})")
    return 0


def cmd_drift(args) -> int:
    cfg = _config_from_args(args)
    dists, reports = _load_distributions(cfg)
    out = _outdir(cfg)
    outputs = []

    if args.mode == "local":
        series = analysis.local_drift(dists, cfg.estimator, cfg.measure)
        target = out / "drift_local.csv"
        tabular.write_series(target, series)
        outputs.append(target)
    elif args.mode == "global":
        baseline = args.baseline or dists[0].bin.label
        series = analysis.global_drift(dists, baseline, cfg.estimator, cfg.measure)
        target = out / "drift_global.csv"
        tabular.write_series(target, series)
        outputs.append(target)
    else:
        matrix = analysis.drift_matrix(dists, cfg.estimator, cfg.measure)
        target = out / "drift_matrix.csv"
        tabular.write_matrix(target, matrix)
        outputs.append(target)

    if args.dump_distributions:
        target = out / "distributions.csv"
        tabular.write_distributions(target, dists)
        outputs.append(target)

    extra = {"mode": args.mode, "baseline": getattr(args, "baseline", None), **reports}
    _write_manifest(cfg, out, f"drift {args.mode}", outputs, extra)
    return 0


def cmd_contrib(args) -> int:
    cfg = _config_from_args(args)
    dists, reports = _load_distributions(cfg)
    out = _outdir(cfg)
    outputs = []

    rows = []
    dump_done = False
    if args.kind == "local":
        pairs = list(zip(dists, dists[1:]))
    else:
        baseline = args.baseline or dists[0].bin.label
        base = next((d for d in dists if d.bin.label == baseline), None)
        if base is None:
            raise DataError(f"baseline bin {baseline} not present in the data")
        pairs = [(base, d) for d in dists if d.bin != base.bin]
    for left, right in pairs:
        breakdown, groups, shares = analysis.contribution_groups(left, right)
        rows.append((right.bin.label, shares))
        if args.dump_pair and right.bin.label == args.dump_pair:
            target = out / f"contributions_{right.bin.label}.csv"
            tabular.write_contributions(target, breakdown, groups)
            outputs.append(target)
            dump_done = True
    if args.dump_pair and not dump_done:
        raise DataError(f"pair bin {args.dump_pair} not present in the data")

    target = out / f"group_shares_{args.kind}.csv"
    tabular.write_group_shares(target, rows)
    outputs.append(target)
    _write_manifest(cfg, out, "contrib", outputs, {"kind": args.kind, **reports})
    return 0


def cmd_transitions(args) -> int:
    cfg = _config_from_args(args)
    dists, reports = _load_distributions(cfg)
    schedule = analysis.build_group_schedule(dists)
    matrix = analysis.transition_matrix(schedule)
    out = _outdir(cfg)
    target = out / "transitions.csv"
    tabular.write_transitions(target, matrix)
    _write_manifest(cfg, out, "transitions", [target], reports)
    return 0


def cmd_trajectories(args) -> int:
    cfg = _config_from_args(args)
    dists, reports = _load_distributions(cfg)
    if args.selector == "top_total":
        selector = analysis.TopTotal(args.k)
    elif args.selector == "top_peak":
        selector = analysis.TopPeak(args.k)
    else:
        if not args.at:
            raise UsageError("--at BIN is required for top_global_contrib")
        selector = analysis.TopGlobalContrib(args.k, args.at, args.baseline)
    panel = analysis.trajectory_panel(dists, selector)
    out = _outdir(cfg)
    target = out / "trajectories.csv"
    tabular.write_trajectories(target, panel)
    extra = {"selector": args.selector, "k": args.k, "at": args.at, **reports}
    _write_manifest(cfg, out, "trajectories", [target], extra)
    return 0


def cmd_predict(args) -> int:
    cfg = _config_from_args(args)
    dists, reports = _load_distributions(cfg)
    source_year, target_year = args.source_year, args.target_year
    out = _outdir(cfg)

    if args.kind == "local":
        series = analysis.local_drift(dists, cfg.estimator, cfg.measure)
        source = analysis.DriftSeries(
            "local",
            series.measure,
            [p for p in series.points if p.bin.start.year == source_year],
        )
        observed = analysis.DriftSeries(
            "local",
            series.measure,
            [p for p in series.points if p.bin.start.year == target_year],
        )
        baselines = ()
    else:
        src_dists = [d for d in dists if d.bin.start.year == source_year]
        tgt_dists = [d for d in dists if d.bin.start.year == target_year]
        if len(src_dists) < 2 or len(tgt_dists) < 2:
            raise DataError("global prediction needs at least two bins in each year")
        source = analysis.global_drift(
            src_dists, src_dists[0].bin.label, cfg.estimator, cfg.measure
        )
        observed = analysis.global_drift(
            tgt_dists, tgt_dists[0].bin.label, cfg.estimator, cfg.measure
        )
        baselines = (src_dists[0].bin.label, tgt_dists[0].bin.label)
    if not source.points:
        raise DataError(f"no drift values available for source year {source_year}")
    if not observed.points:
        raise DataError(f"no drift values available for target year {target_year}")

    predicted = forecast.predict_drift(source, [p.bin for p in observed.points])
    report = forecast.score(predicted, observed, source_year, target_year, baselines)
    csv_path = out / f"forecast_{args.kind}.csv"
    json_path = out / f"forecast_{args.kind}.json"
    tabular.write_forecast(csv_path, json_path, report)
    extra = {
        "kind": args.kind,
        "source_year": source_year,
        "target_year": target_year,
        **reports,
    }
    _write_manifest(cfg, out, "predict", [csv_path, json_path], extra)
    return 0


def cmd_synth(args) -> int:
    try:
        start = parse_date(args.start, "start")
        spec = synthmarket.SynthMarketSpec(
            catalog_size=args.catalog_size,
            zipf_exponent=args.zipf_exponent,
            monthly_churn=args.churn,
            seasonal_fraction=args.seasonal_fraction,
            seasonal_multiplier=args.seasonal_multiplier,
            loans_per_bin=args.loans_per_bin,
            n_bins=args.bins,
            start=start,
            n_loaners=args.loaners,
            seed=args.seed,
        )
        spec.validate()
    except (ValueError, ConfigError) as exc:
        raise UsageError(str(exc)) from exc
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output dir {out}: {exc}") from exc
    events_path = out / "events.csv"
    truth_path = out / "truth.csv" if args.truth else None
    synthmarket.generate(spec, events_path, truth_path)
    manifest = dataclasses.asdict(spec)
    manifest["start"] = spec.start.isoformat()
    outputs = [events_path] + ([truth_path] if truth_path else [])
    tabular.write_manifest(out / "manifest.json", "synth", manifest, [p.name for p in outputs])
    print(f"wrote {events_path} ({spec.loans_per_bin * spec.n_bins} events)")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="driftkit",
        description=(
            "Quantify, decompose, and forecast drift in collective attention "
            "from item-consumption event logs. Defaults follow the measurement "
            "conventions: month bins, JSD in bits, top-K 10000, 500 bootstrap "
            "resamples."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest-check", help="parse an event log and print the ingest report")
    _add_common(p)
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("canon", help="merge title variants into canonical items")
    p.add_argument("--items", required=True, help="CSV with item_key,title,creator")
    p.add_argument("--out", required=True, help="mapping CSV to write")
    p.add_argument("--window", type=int, default=canon.DEFAULT_WINDOW)
    p.add_argument("--max-edit", dest="max_edit", type=int, default=canon.DEFAULT_MAX_EDIT)
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("drift", help="local/global drift series or full pair matrix")
    p.add_argument("mode", choices=("local", "global", "matrix"))
    p.add_argument("--baseline", help="baseline bin start (global mode), e.g. 2021-05-01")
    p.add_argument(
        "--dump-distributions",
        dest="dump_distributions",
        action="store_true",
        help="also write per-bin item counts",
    )
    _add_common(p)
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("contrib", help="per-pair contribution group shares, over all items")
    p.add_argument("--kind", choices=("local", "global"), default="local")
    p.add_argument("--baseline", help="baseline bin start for --kind global")
    p.add_argument(
        "--dump-pair",
        dest="dump_pair",
        help="bin start of one pair whose per-item contributions to dump",
    )
    _add_common(p, all_items=True)
    p.set_defaults(func=cmd_contrib)

    p = sub.add_parser("transitions", help="group-to-group transition matrix, over all items")
    _add_common(p, all_items=True)
    p.set_defaults(func=cmd_transitions)

    p = sub.add_parser(
        "trajectories", help="item-by-bin count panel, peak ordered, selected from all items"
    )
    p.add_argument(
        "--selector",
        choices=("top_total", "top_peak", "top_global_contrib"),
        default="top_total",
    )
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--at", help="bin start for top_global_contrib")
    p.add_argument("--baseline", help="baseline bin for top_global_contrib")
    _add_common(p, all_items=True)
    p.set_defaults(func=cmd_trajectories)

    p = sub.add_parser("predict", help="seasonal-naive drift prediction, year over year")
    p.add_argument("--kind", choices=("local", "global"), default="local")
    p.add_argument("--source-year", dest="source_year", type=int, required=True)
    p.add_argument("--target-year", dest="target_year", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("synth", help="generate a synthetic event log with known truth")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--catalog-size", dest="catalog_size", type=int, default=50_000)
    p.add_argument("--zipf-exponent", dest="zipf_exponent", type=float, default=1.0)
    p.add_argument("--churn", type=float, default=0.05)
    p.add_argument("--seasonal-fraction", dest="seasonal_fraction", type=float, default=0.01)
    p.add_argument("--seasonal-multiplier", dest="seasonal_multiplier", type=float, default=3.0)
    p.add_argument("--loans-per-bin", dest="loans_per_bin", type=int, default=500_000)
    p.add_argument("--bins", type=int, default=24)
    p.add_argument("--start", default="2022-01-01")
    p.add_argument("--loaners", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truth", action="store_true", help="also write the truth sidecar")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"driftkit: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"driftkit: {exc}", file=sys.stderr)
        return 1
    except (IngestError, DataError, ValueError, OSError) as exc:
        print(f"driftkit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
