"""Plug-in and bootstrap bias-corrected divergence estimation from count data.

The plug-in (maximum likelihood) estimate computes the divergence directly
from empirical frequencies; at small samples it overestimates. The bootstrap
correction resamples both sides from their empirical distributions, treats
the mean resampled divergence minus the plug-in value as the bias estimate,
and reports 2 * plugin - mean(resamples), clamped to [0, 1]. Resample b draws
from its own child seed, ``SeedSequence(seed, spawn_key=(b,))`` (the b-th
child that ``SeedSequence(seed).spawn`` gives), so results do not depend on
execution order and are a pure function of (counts, n_resamples, seed).

That is what lets ``jobs`` split the resamples over processes: ``range
(n_resamples)`` is cut into contiguous blocks, one per worker
(``_fork.worker_count``), every block is drawn by ``_resample_block``, and
the blocks are joined in b order (``_fork.run_blocks``: this process draws
block 0, forked children the rest). The mean and the standard error are
taken over that one array, so every ``jobs`` gives the same bits.

No divergence formula lives here. ``plugin_divergence`` goes through
``divergence_of`` on the two ``normalize``d tables (summed by ``exact_sum``).
The bootstrap reads the two tables as the two rows of one
``divergence.BinRows`` over their count panel (``panel_of``), the reader
every view uses: its plug-in value comes from ``BinRows.value``
(``exact_sum``, equal to ``plugin_divergence`` bit for bit) and the shares its
resamples are drawn from, over the pair's joint support, from
``BinRows.pair``. Each resample's value comes from ``divergence_of_arrays``
(np.sum). All run the same kernel in divergence.py, so the bias correction
subtracts like from like.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import _fork
from .divergence import BinRows, DriftValue, Measure, divergence_of, divergence_of_arrays
from .popularity import PopularityDistribution, normalize, panel_of, require_loans

DEFAULT_RESAMPLES = 500


@dataclass(frozen=True)
class Estimator:
    """How a drift value should be estimated from counts.

    ``jobs`` caps the processes a bootstrap pair's resamples are split over;
    it never changes a value, so it takes no part in equality.
    """

    kind: str = "plugin"  # plugin | bootstrap
    n_resamples: int = DEFAULT_RESAMPLES
    seed: int = 0
    jobs: int = field(default=1, compare=False)

    def __post_init__(self):
        if self.kind not in ("plugin", "bootstrap"):
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    jobs: int = 1,
) -> BootstrapEstimate:
    """Bootstrap bias-corrected divergence with a resampling standard error.

    The resamples run in up to ``jobs`` processes, with the same result for
    every ``jobs``.
    """
    require_loans(A)
    require_loans(B)
    if n_resamples < 2:
        raise ValueError("n_resamples must be >= 2")

    rows = BinRows(measure, panel_of([A, B]))
    _, pa, pb = rows.pair(0, 1)
    plugin = rows.value(0, 1)

    draw = partial(_resample_block, measure, pa, pb, A.total, B.total, seed)
    workers = _fork.worker_count(jobs, n_resamples)
    edges = [n_resamples * k // workers for k in range(workers + 1)]
    values = np.concatenate(_fork.run_blocks(draw, list(zip(edges, edges[1:]))))

    resample_mean = float(values.mean())
    corrected = min(max(2.0 * plugin - resample_mean, 0.0), 1.0)
    std_error = float(values.std(ddof=1))
    return BootstrapEstimate(plugin, corrected, std_error, resample_mean, n_resamples, seed)


def _resample_block(
    measure: Measure, pa, pb, total_a: int, total_b: int, seed: int, lo: int, hi: int
) -> np.ndarray:
    """Resamples lo..hi-1 of one pair: both sides redrawn from resample b's own seed."""
    values = np.empty(hi - lo, dtype=np.float64)
    for b in range(lo, hi):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        ra = rng.multinomial(total_a, pa)
        rb = rng.multinomial(total_b, pb)
        values[b - lo] = divergence_of_arrays(measure, ra / total_a, rb / total_b)
    return values


def bootstrap_jsd(
    A: PopularityDistribution,
    B: PopularityDistribution,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> BootstrapEstimate:
    """Bias-corrected JSD in bits with 500 resamples by default."""
    return bootstrap_divergence(A, B, Measure("jsd"), n_resamples, seed)
