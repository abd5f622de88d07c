"""Batch analytics for international research co-production.

Harvests scholarly metadata from OpenAlex into a reproducible page cache,
builds country/institution co-production count tables, derives Jaccard
distance geometry (embedding, Ward clustering, threshold cuts, integration
measures), and emits plot-ready artifacts.
"""

__version__ = "0.1.0"

from .corpus import (
    CountTable,
    Period,
    WorkRecord,
    build_count_table,
    merge_tables,
    top_entities,
    unknown_rate,
)
from .errors import CollabKitError
from .geometry import (
    ClusterCut,
    Dendrogram,
    DistanceMatrix,
    Embedding,
    IcdResult,
    affinity,
    cut_clusters,
    distance_matrix,
    euclidean_embedding,
    icd,
    ward_cluster,
)
from .ingest import (
    OpenAlexClient,
    PageCache,
    WorksQuery,
    expand_concept,
    harvest,
)
from .metrics import (
    KdeCurve,
    YearSeries,
    apply_min_volume_mask,
    bilateral_distance_series,
    intl_collab_rate,
    kde,
)
from .report import render_circular_dendrogram

__all__ = [
    "__version__",
    "CollabKitError",
    "CountTable",
    "Period",
    "WorkRecord",
    "build_count_table",
    "merge_tables",
    "top_entities",
    "unknown_rate",
    "ClusterCut",
    "Dendrogram",
    "DistanceMatrix",
    "Embedding",
    "IcdResult",
    "affinity",
    "cut_clusters",
    "distance_matrix",
    "euclidean_embedding",
    "icd",
    "ward_cluster",
    "OpenAlexClient",
    "PageCache",
    "WorksQuery",
    "expand_concept",
    "harvest",
    "KdeCurve",
    "YearSeries",
    "apply_min_volume_mask",
    "bilateral_distance_series",
    "intl_collab_rate",
    "kde",
    "render_circular_dendrogram",
]
