"""driftkit: measure, decompose, and forecast drift in collective attention."""

from .analysis import (
    DriftMatrix,
    DriftSeries,
    SeriesPoint,
    TopGlobalContrib,
    TopPeak,
    TopTotal,
    TrajectoryPanel,
    build_group_schedule,
    contribution_groups,
    drift_matrix,
    global_drift,
    local_drift,
    trajectory_panel,
    transition_matrix,
)
from .canon import CanonicalCatalog, build_catalog, canonicalize
from .divergence import (
    ContributionBreakdown,
    DriftValue,
    Measure,
    jaccard_distance,
    jsd,
    jsd_alpha_normalized,
    jsd_with_contributions,
)
from .estimators import (
    BootstrapEstimate,
    Estimator,
    bootstrap_divergence,
    bootstrap_jsd,
    plugin_divergence,
    plugin_jsd,
)
from .events import (
    BinTally,
    Category,
    CohortFilter,
    DateRange,
    Education,
    IngestError,
    IngestReport,
    Medium,
    Residence,
    SchemaError,
    Sex,
    TimeBin,
    age_at,
    assign_bin,
    find_bin,
    ingest,
)
from .forecast import ForecastReport, predict_drift, score
from .popularity import (
    PopularityDistribution,
    aggregate,
    normalize as normalize_distribution,
    restrict_top_k,
)
from .synthmarket import GroundTruth, SynthMarketSpec, generate, sample_counts, true_jsd

__version__ = "0.1.0"
