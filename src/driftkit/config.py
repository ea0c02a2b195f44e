"""Run configuration: plain key-value config files merged with CLI overrides."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from .divergence import Measure
from .estimators import Estimator
from .events import (
    GRANULARITIES,
    Category,
    CohortFilter,
    DateRange,
    Education,
    Residence,
    Sex,
)

# default cohort age bands; the source never pins an exact binning, so they
# are configurable via the `age_bins` key
DEFAULT_AGE_BINS = ((0, 18), (18, 30), (30, 46), (46, 65), (65, None))
DEFAULT_TOP_K = 10_000


class ConfigError(Exception):
    pass


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a `key = value` file; '#' starts a comment, blank lines ignored."""
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
    return raw


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


def parse_age_range(text: str) -> tuple[int, int | None]:
    if "-" not in text:
        raise ConfigError(f"bad age range {text!r}: expected LO-HI or LO-")
    lo, hi = text.split("-", 1)
    try:
        return int(lo), (int(hi) if hi else None)
    except ValueError as exc:
        raise ConfigError(f"bad age range {text!r}") from exc


def _parse_enum(enum_cls, text: str, what: str):
    try:
        return enum_cls(text)
    except ValueError:
        values = ", ".join(m.value for m in enum_cls)
        raise ConfigError(f"bad {what} {text!r}: expected one of {values}") from None


@dataclass
class RunConfig:
    """Everything a run needs; serialized verbatim into the run manifest."""

    input: Path | None = None
    catalog: Path | None = None
    output_dir: Path = Path("out")
    granularity: str = "month"
    window: DateRange | None = None
    exclude: tuple[DateRange, ...] = ()
    cohort: CohortFilter = field(default_factory=CohortFilter)
    age_bins: tuple[tuple[int, int | None], ...] = DEFAULT_AGE_BINS
    measure: Measure = field(default_factory=Measure)
    estimator: Estimator = field(default_factory=Estimator)
    top_k: int = DEFAULT_TOP_K  # 0 disables restriction
    seed: int = 0
    max_malformed_fraction: float = 0.01

    def age_cohorts(self) -> list[CohortFilter]:
        """One cohort filter per configured age bin, for per-age sweeps."""
        return [CohortFilter(age_range=b) for b in self.age_bins]

    def validate(self):
        last = -1
        for lo, hi in self.age_bins:
            if lo < last or (hi is not None and hi <= lo):
                raise ConfigError(f"age_bins must be ascending half-open ranges, got {self.age_bins}")
            last = lo
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
            "age_bins": [[lo, hi] for lo, hi in self.age_bins],
            "measure": self.measure.label,
            "estimator": {
                "kind": self.estimator.kind,
                "n_resamples": self.estimator.n_resamples,
                "seed": self.estimator.seed,
            },
            "top_k": self.top_k,
            "seed": self.seed,
            "max_malformed_fraction": self.max_malformed_fraction,
        }


def build_config(raw: dict[str, str], overrides: dict) -> RunConfig:
    """Merge config-file keys with CLI overrides (overrides win, None means unset)."""
    merged = dict(raw)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value

    def get(key, default=None):
        return merged.get(key, default)

    window = None
    start, end = get("window_start"), get("window_end")
    if (start is None) != (end is None):
        raise ConfigError("window_start and window_end must be given together")
    if start is not None:
        start_d = start if isinstance(start, date) else parse_date(str(start), "window_start")
        end_d = end if isinstance(end, date) else parse_date(str(end), "window_end")
        try:
            window = DateRange(start_d, end_d)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    exclude = []
    raw_exclude = get("exclude", ())
    if isinstance(raw_exclude, str):
        raw_exclude = [p for p in raw_exclude.split(",") if p.strip()]
    for item in raw_exclude:
        exclude.append(item if isinstance(item, DateRange) else parse_date_range(item, "exclude"))

    age_bins = DEFAULT_AGE_BINS
    raw_bins = get("age_bins")
    if raw_bins:
        if isinstance(raw_bins, str):
            raw_bins = [p for p in raw_bins.split(",") if p.strip()]
        age_bins = tuple(
            b if isinstance(b, tuple) else parse_age_range(str(b).strip()) for b in raw_bins
        )

    cohort_kwargs = {}
    if get("age_range"):
        value = get("age_range")
        cohort_kwargs["age_range"] = value if isinstance(value, tuple) else parse_age_range(value)
    if get("sex"):
        cohort_kwargs["sex"] = _parse_enum(Sex, get("sex"), "sex")
    if get("education"):
        cohort_kwargs["education"] = _parse_enum(Education, get("education"), "education")
    if get("residence"):
        cohort_kwargs["residence"] = _parse_enum(Residence, get("residence"), "residence")
    if get("category"):
        cats = [c.strip() for c in str(get("category")).split(",") if c.strip()]
        cohort_kwargs["categories"] = frozenset(
            _parse_enum(Category, c, "category") for c in cats
        )

    alpha = get("alpha")
    measure_kind = str(get("measure", "jsd"))
    if measure_kind not in ("jsd", "jsd_alpha", "jaccard"):
        raise ConfigError(f"measure must be jsd, jsd_alpha or jaccard, got {measure_kind!r}")
    try:
        measure = Measure(measure_kind, float(alpha) if alpha is not None else None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        seed = int(get("seed", 0))
        estimator = Estimator(
            str(get("estimator", "plugin")), int(get("resamples", 500)), seed
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    cfg = RunConfig(
        input=Path(get("input")) if get("input") else None,
        catalog=Path(get("catalog")) if get("catalog") else None,
        output_dir=Path(get("output_dir", "out")),
        granularity=str(get("granularity", "month")),
        window=window,
        exclude=tuple(exclude),
        cohort=CohortFilter(**cohort_kwargs),
        age_bins=age_bins,
        measure=measure,
        estimator=estimator,
        top_k=int(get("top_k", DEFAULT_TOP_K)),
        seed=seed,
        max_malformed_fraction=float(get("max_malformed_fraction", 0.01)),
    )
    cfg.validate()
    return cfg
