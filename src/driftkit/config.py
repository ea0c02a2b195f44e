"""Run configuration: plain key-value config files merged with CLI overrides.

Each run option is declared once, in `OPTIONS`: its key (also the CLI flag,
with dashes), the `RunConfig` field it sets, its parser and its help text.
Defaults live only in the `RunConfig` fields and the dataclasses they hold,
but for `jobs`, which `cli._config_from_args` sets to the usable cores.
Every value, from a config file or a flag, arrives as a string and is
parsed once by its option's parser; an empty value leaves the key unset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from ._fork import MAX_WORKERS
from .divergence import Measure
from .estimators import DEFAULT_RESAMPLES, Estimator
from .events import (
    GRANULARITIES,
    Category,
    CohortFilter,
    DateRange,
    Education,
    Residence,
    Sex,
)

DEFAULT_TOP_K = 10_000


class ConfigError(Exception):
    pass


def parse_date(text: str, what: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}: expected YYYY-MM-DD") from exc


def parse_date_range(text: str, what: str) -> DateRange:
    if ":" not in text:
        raise ConfigError(f"bad {what} {text!r}: expected START:END")
    start, end = text.split(":", 1)
    try:
        return DateRange(parse_date(start, what), parse_date(end, what))
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}: {exc}") from exc


def parse_age_range(text: str, what: str = "age_range") -> tuple[int, int | None]:
    if "-" not in text:
        raise ConfigError(f"bad {what} {text!r}: expected LO-HI or LO-")
    lo, hi = text.split("-", 1)
    try:
        lo, hi = int(lo), (int(hi) if hi else None)
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}") from exc
    if hi is not None and hi <= lo:
        raise ConfigError(f"bad {what} {text!r}: the band [LO, HI) is empty, expected LO < HI")
    return lo, hi


def _parse_enum(enum_cls, text: str, what: str):
    try:
        return enum_cls(text)
    except ValueError:
        values = ", ".join(m.value for m in enum_cls)
        raise ConfigError(f"bad {what} {text!r}: expected one of {values}") from None


def _as(kind):
    """A parser that converts with ``kind`` and reports a failure as ConfigError."""

    def parse(text: str, what: str):
        try:
            return kind(text)
        except ValueError:
            raise ConfigError(f"bad {what} {text!r}: expected {kind.__name__}") from None

    return parse


def _items(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


def _parse_exclude(text: str, what: str) -> tuple[DateRange, ...]:
    return tuple(parse_date_range(p, what) for p in _items(text))


def _parse_categories(text: str, what: str) -> frozenset[Category]:
    return frozenset(_parse_enum(Category, c, what) for c in _items(text))


class Option(NamedTuple):
    """One run option: the RunConfig field it sets ("field" or "field.argument"
    for a field built from several keys), its parser and its help text."""

    target: str
    parse: Callable[[str, str], object]
    help: str | None = None
    metavar: str | None = None


OPTIONS: dict[str, Option] = {
    "input": Option("input", _as(Path), "event log CSV"),
    "catalog": Option("catalog", _as(Path), "item_key,canonical_id mapping from `canon`"),
    "output_dir": Option("output_dir", _as(Path), "output directory"),
    "granularity": Option("granularity", _as(str), None, "|".join(GRANULARITIES)),
    "window_start": Option("window.start", parse_date, None, "YYYY-MM-DD"),
    "window_end": Option("window.end", parse_date, None, "YYYY-MM-DD"),
    "exclude": Option(
        "exclude",
        _parse_exclude,
        "date range to drop (repeatable; comma-separated in a config file), e.g. lockdown months",
        "START:END",
    ),
    "sex": Option("cohort.sex", partial(_parse_enum, Sex)),
    "education": Option("cohort.education", partial(_parse_enum, Education)),
    "residence": Option("cohort.residence", partial(_parse_enum, Residence)),
    "category": Option("cohort.categories", _parse_categories, "comma-separated category filter"),
    "age_range": Option("cohort.age_range", parse_age_range, None, "LO-HI"),
    "measure": Option("measure.kind", _as(str), None, "jsd|jsd_alpha|jaccard"),
    "alpha": Option("measure.alpha", _as(float), "order of jsd_alpha"),
    "estimator": Option("estimator.kind", _as(str), None, "plugin|bootstrap"),
    "resamples": Option(
        "estimator.n_resamples", _as(int), f"bootstrap resamples (default {DEFAULT_RESAMPLES})"
    ),
    "seed": Option("estimator.seed", _as(int), "root seed for all randomness"),
    "jobs": Option(
        "estimator.jobs",
        _as(int),
        f"processes for bootstrap resampling (default: the usable cores, at most "
        f"{MAX_WORKERS}); outputs are the same for every N",
        "N",
    ),
    "top_k": Option(
        "top_k", _as(int), f"restrict to the K most loaned items (default {DEFAULT_TOP_K}, 0 disables)"
    ),
    "max_malformed_fraction": Option("max_malformed_fraction", _as(float)),
}

# fields built from several keys; an unset field keeps its RunConfig default
_COMPOSITES = {
    "window": DateRange,
    "cohort": CohortFilter,
    "measure": Measure,
    "estimator": Estimator,
}

# keys read only by one kind of measure or estimator: key -> (field, kind)
_ONLY_WITH = {
    "alpha": ("measure", "jsd_alpha"),
    "resamples": ("estimator", "bootstrap"),
    "jobs": ("estimator", "bootstrap"),
}


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a `key = value` file; '#' starts a comment, blank lines ignored.

    Keys must be `OPTIONS` keys; the file's unknown keys are reported together.
    """
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    unknown = [k for k in raw if k not in OPTIONS]
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return raw


@dataclass
class RunConfig:
    """Everything a run needs; serialized verbatim into the run manifest,
    except ``estimator.jobs``, which changes no output."""

    input: Path | None = None
    catalog: Path | None = None
    output_dir: Path = Path("out")
    granularity: str = "month"
    window: DateRange | None = None
    exclude: tuple[DateRange, ...] = ()
    cohort: CohortFilter = field(default_factory=CohortFilter)
    measure: Measure = field(default_factory=Measure)
    estimator: Estimator = field(default_factory=Estimator)  # its seed is the root seed
    top_k: int = DEFAULT_TOP_K  # 0 disables restriction
    max_malformed_fraction: float = 0.01

    def validate(self):
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"granularity must be one of {GRANULARITIES}")
        if self.top_k < 0:
            raise ConfigError("top_k must be >= 0 (0 disables restriction)")
        if self.estimator.n_resamples < 2:
            raise ConfigError("resamples must be >= 2")
        if not 0.0 <= self.max_malformed_fraction <= 1.0:
            raise ConfigError("max_malformed_fraction must lie in [0, 1]")

    def as_dict(self) -> dict:
        return {
            "input": str(self.input) if self.input else None,
            "catalog": str(self.catalog) if self.catalog else None,
            "output_dir": str(self.output_dir),
            "granularity": self.granularity,
            "window": (
                [self.window.start.isoformat(), self.window.end.isoformat()]
                if self.window
                else None
            ),
            "exclude": [[r.start.isoformat(), r.end.isoformat()] for r in self.exclude],
            "cohort": self.cohort.label,
            "measure": self.measure.label,
            "estimator": {
                "kind": self.estimator.kind,
                "n_resamples": self.estimator.n_resamples,
                "seed": self.estimator.seed,
            },
            "top_k": self.top_k,
            "max_malformed_fraction": self.max_malformed_fraction,
        }


def build_config(raw: dict[str, str], overrides: dict[str, str | None]) -> RunConfig:
    """Merge config-file keys with CLI overrides (overrides win, None means unset).

    Keys are `OPTIONS` keys and values strings; each is parsed once.
    """
    merged = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    fields: dict = {}
    parts: dict[str, dict] = {name: {} for name in _COMPOSITES}
    for key, text in merged.items():
        if text == "":
            continue
        option = OPTIONS[key]
        value = option.parse(text, key)
        name, _, argument = option.target.partition(".")
        if argument:
            parts[name][argument] = value
        else:
            fields[name] = value
    if len(parts["window"]) == 1:
        raise ConfigError("window_start and window_end must be given together")
    for name, build in _COMPOSITES.items():
        if parts[name]:
            try:
                fields[name] = build(**parts[name])
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
    for key, (name, kind) in _ONLY_WITH.items():
        if merged.get(key) and fields[name].kind != kind:
            raise ConfigError(
                f"--{key} (config key {key}) applies only to {name} {kind}, "
                f"not {fields[name].kind}"
            )
    cfg = RunConfig(**fields)
    cfg.validate()
    return cfg
