"""Plug-in and bootstrap bias-corrected divergence estimation from count data.

The plug-in (maximum likelihood) estimate computes the divergence directly
from empirical frequencies; at small samples it overestimates. The bootstrap
correction resamples both sides from their empirical distributions, treats
the mean resampled divergence minus the plug-in value as the bias estimate,
and reports 2 * plugin - mean(resamples), clamped to [0, 1]. Resample b draws
from a child seed spawned as (seed, b), so results do not depend on execution
order and are a pure function of (counts, n_resamples, seed).

No divergence formula lives here. ``plugin_divergence`` goes through
``divergence_of`` on the two ``normalize``d tables (exact fsum summation).
The bootstrap aligns the two count tables once, as rows of their count
panel (``panel_of``), and takes both its plug-in value (exact fsum, equal to
``plugin_divergence`` bit for bit) and each resample (np.sum) from
``divergence_of_arrays``; all run the same kernel in divergence.py, so the
bias correction subtracts like from like.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import DriftValue, Measure, _aligned_rows, divergence_of, divergence_of_arrays
from .popularity import PopularityDistribution, normalize, panel_of, require_loans

DEFAULT_RESAMPLES = 500


@dataclass(frozen=True)
class Estimator:
    """How a drift value should be estimated from counts."""

    kind: str = "plugin"  # plugin | bootstrap
    n_resamples: int = DEFAULT_RESAMPLES
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("plugin", "bootstrap"):
            raise ValueError(f"unknown estimator kind {self.kind!r}")


@dataclass(frozen=True)
class BootstrapEstimate:
    plugin_value: float
    corrected_value: float
    std_error: float
    resample_mean: float
    n_resamples: int
    seed: int


def plugin_divergence(
    A: PopularityDistribution, B: PopularityDistribution, measure: Measure = Measure("jsd")
) -> DriftValue:
    """Plug-in ``measure`` between two bins; a bin without loans raises (`normalize`)."""
    return divergence_of(measure, normalize(A), normalize(B))


def plugin_jsd(A: PopularityDistribution, B: PopularityDistribution) -> DriftValue:
    """Maximum likelihood JSD of the two count tables, in bits."""
    return plugin_divergence(A, B, Measure("jsd"))


def bootstrap_divergence(
    A: PopularityDistribution,
    B: PopularityDistribution,
    measure: Measure = Measure("jsd"),
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> BootstrapEstimate:
    """Bootstrap bias-corrected divergence with a resampling standard error."""
    require_loans(A)
    require_loans(B)
    if n_resamples < 2:
        raise ValueError("n_resamples must be >= 2")

    _, ca, cb = _aligned_rows(panel_of([A, B]), 0, 1)
    pa = ca / A.total
    pb = cb / B.total
    plugin = divergence_of_arrays(measure, pa, pb, exact=True)

    children = np.random.SeedSequence(seed).spawn(n_resamples)
    values = np.empty(n_resamples, dtype=np.float64)
    for b, child in enumerate(children):
        rng = np.random.default_rng(child)
        ra = rng.multinomial(A.total, pa)
        rb = rng.multinomial(B.total, pb)
        values[b] = divergence_of_arrays(measure, ra / A.total, rb / B.total)

    resample_mean = float(values.mean())
    corrected = min(max(2.0 * plugin - resample_mean, 0.0), 1.0)
    std_error = float(values.std(ddof=1))
    return BootstrapEstimate(plugin, corrected, std_error, resample_mean, n_resamples, seed)


def bootstrap_jsd(
    A: PopularityDistribution,
    B: PopularityDistribution,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> BootstrapEstimate:
    """Bias-corrected JSD in bits with 500 resamples by default."""
    return bootstrap_divergence(A, B, Measure("jsd"), n_resamples, seed)
