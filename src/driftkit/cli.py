"""Command-line front end: ingestion, canonicalization, drift analyses, outputs.

Exit codes: 0 success, 1 usage or configuration error, 2 data error.
Each message is one stderr line, a library warning's `driftkit: warning: ...`.
Each run option (`config.OPTIONS`) is a config-file key and a flag of the
subcommands that read it (`_add_common`); anywhere else it is a usage error.
`ingest-check` and the analysis subcommands read the log through one call
(`_ingest`): a single pass from CSV rows to per-bin counts, with the window,
exclusions, cohort and granularity applied per row. The analysis subcommands
share one run frame (`_run`): check the view flags (`--baseline`, `--at`; an
empty one is unset, and the chosen view must read each one given and get
each it requires), build the config, load the distributions (ingest, then
`aggregate` through the catalog), run the analysis, and only then write.
`canon`, `synth` and the analysis subcommands write through one output frame
(`_write_outputs`), all or nothing: a failed or interrupted run leaves the
previous run's files as they were, no temporary file and no directory it made.
Views are planned in `analysis` alone (default baseline, two-bin minimum);
the subcommands pass the flags through.
The estimator's seed is the one root seed, so identical inputs and flags
give byte-identical outputs. `--jobs` (by default every usable core) only
splits bootstrap resamples over processes and changes no output byte.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import warnings
from functools import partial
from pathlib import Path

from . import _fork, analysis, canon, forecast, synthmarket, tabular
from .config import OPTIONS, ConfigError, RunConfig, build_config, load_config, parse_date
from .events import IngestError, ingest
from .popularity import aggregate, restrict_top_k


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); our contract says 1
        raise UsageError(message)


def _at_least(minimum: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = minimum - 1
    if value < minimum:
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
    return value


_at_least_one = partial(_at_least, 1)
_at_least_zero = partial(_at_least, 0)


# the `config.OPTIONS` keys each subcommand reads: ingest-check the ingest keys; contrib,
# transitions and trajectories add catalog and output_dir; drift and predict read all
_INGEST_KEYS = ("input", "granularity", "window_start", "window_end", "exclude", "sex", "education",
                "residence", "category", "age_range", "max_malformed_fraction")  # fmt: skip
_PANEL_KEYS = (*_INGEST_KEYS, "catalog", "output_dir")


def _add_common(parser: argparse.ArgumentParser, keys=tuple(OPTIONS)):
    """Add `--config` and a flag for each run option in ``keys``, and no other."""
    parser.add_argument("--config", help="key = value config file; flags override it")
    for key in keys:
        option = OPTIONS[key]
        parser.add_argument(
            "--" + key.replace("_", "-"),
            dest=key,
            metavar=option.metavar,
            help=option.help,
            action="append" if key == "exclude" else "store",
        )
    parser.set_defaults(keys=keys)


def _config_from_args(args) -> RunConfig:
    raw = load_config(args.config) if args.config else {}
    unread = [key for key in raw if key not in args.keys]
    if unread:
        raise UsageError(f"{args.subcommand} does not read config keys: {', '.join(unread)}")
    # a subcommand without top_k spans every item; None leaves a key unset
    overrides = {"top_k": "0"} | {key: getattr(args, key) for key in args.keys}
    if overrides["exclude"]:
        overrides["exclude"] = ",".join(overrides["exclude"])
    cfg = build_config(raw, overrides)
    if not (overrides.get("jobs") or raw.get("jobs")):  # unset: every usable core
        cfg.estimator = dataclasses.replace(cfg.estimator, jobs=_fork.usable_cores())
    if cfg.input is None:
        raise UsageError("an input event log is required (--input or config `input`)")
    return cfg


def _ingest(cfg: RunConfig):
    return ingest(
        cfg.input,
        window=cfg.window,
        exclude=cfg.exclude,
        max_malformed_fraction=cfg.max_malformed_fraction,
        granularity=cfg.granularity,
        cohort=cfg.cohort,
    )


def _load_distributions(cfg: RunConfig):
    catalog = tabular.read_mapping(cfg.catalog) if cfg.catalog else None
    stream, ingest_report = _ingest(cfg)
    dists, agg_report = aggregate(stream, catalog)
    if not dists:
        raise DataError("no events matched the window and cohort filters")
    if cfg.top_k:
        dists = restrict_top_k(dists, cfg.top_k)
    reports = {"ingest": ingest_report.as_dict(), "unknown_keys": agg_report.unknown_keys}
    reports.update(matched=agg_report.matched, skipped=dict(agg_report.skipped))
    return dists, reports


# flags that one view alone reads: subcommand ->
# (flags, the flags that view requires, the argument naming the view, that view)
_VIEW_FLAGS = {
    "drift": (("baseline",), (), "mode", "global"),
    "contrib": (("baseline",), (), "kind", "global"),
    "trajectories": (("at", "baseline"), ("at",), "selector", "top_global_contrib"),
}


def _reject_unread_view_flags(args):
    """Check the view flags before the log is read; an empty one means unset."""
    if args.subcommand not in _VIEW_FLAGS:
        return
    flags, required, name, view = _VIEW_FLAGS[args.subcommand]
    chosen = getattr(args, name)
    for flag in flags:
        if getattr(args, flag) == "":
            setattr(args, flag, None)
        if getattr(args, flag) is not None and chosen != view:
            raise UsageError(
                f"{args.subcommand} --{flag} applies only to {name} {view}, not {chosen}"
            )
        if getattr(args, flag) is None and chosen == view and flag in required:
            raise UsageError(f"--{flag} BIN is required for {name} {view}")


def _write_outputs(out: Path, products, manifest=None) -> None:
    """The one output frame: write ``products`` into directory ``out``, all or nothing.

    A product is a tuple of file names and a writer taking their paths; a
    ``manifest`` (subcommand, config dict) adds ``manifest.json`` last. Each
    file goes to ``.<name>.<pid>.tmp``, renamed only after every writer has
    returned. On any failure the temporaries, then the directories this call
    created, are removed. Other processes' temporaries are left alone.
    """
    if manifest is not None:
        names = [name for files, _ in products for name in files]
        products = [
            *products,
            (("manifest.json",), lambda p: tabular.write_manifest(p, *manifest, names)),
        ]
    created = [d for d in (out, *out.parents) if not os.path.exists(d)]  # deepest first
    staged = []  # (temporary path, final path), in product order
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DataError(f"cannot create output dir {out}: {exc}") from exc
        for files, write in products:
            paths = [(out / f".{name}.{os.getpid()}.tmp", out / name) for name in files]
            staged.extend(paths)
            write(*(tmp for tmp, _ in paths))
        for tmp, final in staged:
            os.replace(tmp, final)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        for directory in created:
            with contextlib.suppress(OSError):  # never made, or no longer empty
                os.rmdir(directory)
        raise


def _run(args) -> int:
    """The run frame of every analysis subcommand.

    ``args.analyse(args, cfg, dists)`` returns the products, each a tuple of
    file names and a writer taking their paths, and the manifest's extra
    run entries. Nothing is written until the analysis has succeeded.
    """
    _reject_unread_view_flags(args)
    cfg = _config_from_args(args)
    dists, reports = _load_distributions(cfg)
    products, extra = args.analyse(args, cfg, dists)
    config_dict = cfg.as_dict()
    config_dict["run"] = {**extra, **reports}
    subcommand = " ".join(filter(None, (args.subcommand, getattr(args, "mode", None))))
    _write_outputs(Path(cfg.output_dir), products, (subcommand, config_dict))
    return 0


# Subcommands ------------------------------------------------------------------


def cmd_ingest_check(args) -> int:
    stream, report = _ingest(_config_from_args(args))
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
    write = partial(tabular.write_mapping, mapping=catalog.mapping)
    _write_outputs(out.parent, [((out.name,), write)])
    print(f"{catalog.n_items} items -> {catalog.n_canonical} canonical items ({out})")
    return 0


def cmd_drift(args, cfg: RunConfig, dists):
    if args.mode == "matrix":
        matrix = analysis.drift_matrix(dists, cfg.estimator, cfg.measure)
        products = [(("drift_matrix.csv",), lambda p: tabular.write_matrix(p, matrix))]
    else:
        if args.mode == "local":
            series = analysis.local_drift(dists, cfg.estimator, cfg.measure)
        else:
            series = analysis.global_drift(dists, args.baseline, cfg.estimator, cfg.measure)
        products = [((f"drift_{args.mode}.csv",), lambda p: tabular.write_series(p, series))]
    if args.dump_distributions:
        products.append((("distributions.csv",), lambda p: tabular.write_distributions(p, dists)))
    return products, {"mode": args.mode, "baseline": args.baseline}


def cmd_contrib(args, cfg: RunConfig, dists):
    rows, products = [], []
    for right, breakdown, _, shares in analysis.contribution_pairs(dists, args.kind, args.baseline):
        rows.append((right.label, shares))
        if right.label == args.dump_pair:
            write = partial(tabular.write_contributions, breakdown=breakdown)
            products.append(((f"contributions_{args.dump_pair}.csv",), write))
    if args.dump_pair and not products:
        if any(d.bin.label == args.dump_pair for d in dists):
            role = "the baseline" if args.kind == "global" else "the first bin"
            raise DataError(f"pair bin {args.dump_pair} is {role}, which ends no {args.kind} pair")
        raise DataError(f"pair bin {args.dump_pair} not present in the data")
    products.append(
        ((f"group_shares_{args.kind}.csv",), lambda p: tabular.write_group_shares(p, rows))
    )
    return products, {"kind": args.kind, "baseline": args.baseline}


def cmd_transitions(args, cfg: RunConfig, dists):
    matrix = analysis.transition_matrix(analysis.build_group_schedule(dists))
    return [(("transitions.csv",), lambda p: tabular.write_transitions(p, matrix))], {}


def cmd_trajectories(args, cfg: RunConfig, dists):
    if args.selector == "top_total":
        selector = analysis.TopTotal(args.k)
    elif args.selector == "top_peak":
        selector = analysis.TopPeak(args.k)
    else:
        selector = analysis.TopGlobalContrib(args.k, args.at, args.baseline)
    panel = analysis.trajectory_panel(dists, selector)
    products = [(("trajectories.csv",), lambda p: tabular.write_trajectories(p, panel))]
    extra = {"selector": args.selector, "k": args.k, "at": args.at, "baseline": args.baseline}
    return products, extra


def cmd_predict(args, cfg: RunConfig, dists):
    source_year, target_year = args.source_year, args.target_year

    def of_year(entries, year):  # series points or distributions, by their bins
        return [e for e in entries if e.bin.start.year == year]

    if args.kind == "local":
        series = analysis.local_drift(dists, cfg.estimator, cfg.measure)
        source, observed = (
            analysis.DriftSeries("local", series.measure, of_year(series.points, year))
            for year in (source_year, target_year)
        )
        baselines = ()
    else:

        def global_of_year(year):
            try:
                return analysis.global_drift(of_year(dists, year), None, cfg.estimator, cfg.measure)
            except ValueError as exc:
                raise DataError(f"year {year}: {exc}") from exc

        source, observed = map(global_of_year, (source_year, target_year))
        baselines = (source.baseline.label, observed.baseline.label)
    if not source.points:
        raise DataError(f"no drift values available for source year {source_year}")
    if not observed.points:
        raise DataError(f"no drift values available for target year {target_year}")

    predicted = forecast.predict_drift(source, [p.bin for p in observed.points])
    report = forecast.score(predicted, observed, source_year, target_year, baselines)
    files = (f"forecast_{args.kind}.csv", f"forecast_{args.kind}.json")
    products = [(files, lambda csv_path, json_path: tabular.write_forecast(csv_path, json_path, report))]
    extra = {"kind": args.kind, "source_year": source_year, "target_year": target_year}
    return products, extra


# the synth flags: flag, SynthMarketSpec field, type; defaults come from SynthMarketSpec()
_SYNTH_FLAGS = (
    ("--catalog-size", "catalog_size", int),
    ("--zipf-exponent", "zipf_exponent", float),
    ("--churn", "monthly_churn", float),
    ("--seasonal-fraction", "seasonal_fraction", float),
    ("--seasonal-multiplier", "seasonal_multiplier", float),
    ("--loans-per-bin", "loans_per_bin", int),
    ("--bins", "n_bins", int),
    ("--loaners", "n_loaners", int),
    ("--seed", "seed", int),
)


def _synth_spec(args) -> synthmarket.SynthMarketSpec:
    """The synthetic market spec of the synth flags."""
    fields = {name: getattr(args, name) for _, name, _ in _SYNTH_FLAGS}
    return synthmarket.SynthMarketSpec(start=parse_date(args.start, "start"), **fields)


def cmd_synth(args) -> int:
    try:
        spec = _synth_spec(args)
        spec.validate()
    except (ValueError, ConfigError) as exc:
        raise UsageError(str(exc)) from exc
    out = Path(args.out)
    files = ("events.csv", "truth.csv") if args.truth else ("events.csv",)
    manifest = {**dataclasses.asdict(spec), "start": spec.start.isoformat()}
    _write_outputs(out, [(files, partial(synthmarket.generate, spec))], ("synth", manifest))
    print(f"wrote {out / 'events.csv'} ({spec.loans_per_bin * spec.n_bins} events)")
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
    _add_common(p, _INGEST_KEYS)
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("canon", help="merge title variants into canonical items")
    p.add_argument("--items", required=True, help="CSV with item_key,title,creator")
    p.add_argument("--out", required=True, help="mapping CSV to write")
    p.add_argument("--window", type=_at_least_one, default=canon.DEFAULT_WINDOW)
    p.add_argument("--max-edit", type=_at_least_zero, default=canon.DEFAULT_MAX_EDIT)
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("drift", help="local/global drift series or full pair matrix")
    p.add_argument("mode", choices=("local", "global", "matrix"))
    p.add_argument("--baseline", help="baseline bin start (global mode), e.g. 2021-05-01")
    p.add_argument(
        "--dump-distributions", action="store_true", help="also write per-bin item counts"
    )
    _add_common(p)
    p.set_defaults(func=_run, analyse=cmd_drift)

    p = sub.add_parser("contrib", help="per-pair contribution group shares, over all items")
    p.add_argument("--kind", choices=("local", "global"), default="local")
    p.add_argument("--baseline", help="baseline bin start for --kind global")
    p.add_argument("--dump-pair", help="bin start of one pair whose per-item contributions to dump")
    _add_common(p, _PANEL_KEYS)
    p.set_defaults(func=_run, analyse=cmd_contrib)

    p = sub.add_parser("transitions", help="group-to-group transition matrix, over all items")
    _add_common(p, _PANEL_KEYS)
    p.set_defaults(func=_run, analyse=cmd_transitions)

    p = sub.add_parser(
        "trajectories", help="item-by-bin count panel, peak ordered, selected from all items"
    )
    p.add_argument(
        "--selector",
        choices=("top_total", "top_peak", "top_global_contrib"),
        default="top_total",
    )
    p.add_argument("--k", type=_at_least_one, default=1000, help="items to keep (>= 1)")
    p.add_argument("--at", help="bin start for top_global_contrib")
    p.add_argument("--baseline", help="baseline bin for top_global_contrib")
    _add_common(p, _PANEL_KEYS)
    p.set_defaults(func=_run, analyse=cmd_trajectories)

    p = sub.add_parser("predict", help="seasonal-naive drift prediction, year over year")
    p.add_argument("--kind", choices=("local", "global"), default="local")
    p.add_argument("--source-year", type=int, required=True)
    p.add_argument("--target-year", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_run, analyse=cmd_predict)

    p = sub.add_parser("synth", help="generate a synthetic event log with known truth")
    p.add_argument("--out", required=True, help="output directory")
    defaults = synthmarket.SynthMarketSpec()
    for flag, name, kind in _SYNTH_FLAGS:
        p.add_argument(flag, dest=name, type=kind, default=getattr(defaults, name))
    p.add_argument("--start", default=defaults.start.isoformat())
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
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"driftkit: warning: {message}\n"
    try:
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"driftkit: {exc}", file=sys.stderr)
        return 1
    except (IngestError, DataError, ValueError, OSError) as exc:
        print(f"driftkit: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
