"""Topological metrics and epidemic-threshold analysis for static call graphs."""

import os
import sys

# numpy's OpenBLAS starts one spinning thread per CPU when it loads, and
# its reductions then sum in an order that depends on that count.  The
# only BLAS calls here are the Lanczos products on at most 20 x n arrays,
# which gain nothing from threads, so load numpy with one BLAS thread
# unless the caller chose a count.  OpenBLAS reads the variable once, at
# load, so it is taken out again: subprocesses never see it.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    del numpy
del os, sys

from .corpus import CorpusEntry, ValidationError, load_entry, parse_manifest, read_manifest
from .degree import (
    DegenerateSampleError,
    DegreeSequence,
    DegreeSummary,
    ExponentialFit,
    FitComparison,
    PowerLawFit,
    compare_fits,
    degree_sequence,
    degree_summary,
    empirical_ccdf,
    fit_exponential,
    fit_power_law,
)
from .epidemic import (
    ConvergenceError,
    SisParams,
    SisTrace,
    SpectralResult,
    ThresholdSweep,
    lambda_vs_size,
    sis_simulate,
    spectral_radius,
    threshold_sweep,
)
from .generators import (
    ERASED_CONFIG,
    GNM,
    RandomGraphSpec,
    SpecError,
    generate_random,
    sample_power_law,
)
from .graph import (
    CallGraph,
    CallGraphError,
    InputError,
    ParseError,
    largest_wcc,
    load_dot_subset,
    load_edge_list,
    symmetrize,
    to_edge_list,
    weak_components,
)
from .paths import (
    BetweennessResult,
    ComponentStats,
    GeodesicSummary,
    betweenness,
    betweenness_distribution,
    component_stats,
    harmonic_geodesic_mean,
    strongly_connected_components,
)
from .report import (
    CORPUS_DEFAULT_METRICS,
    METRICS,
    VERSION,
    AnalysisConfig,
    ConfigError,
    analyze,
    analyze_corpus,
    analyze_graph,
    compare_baseline,
    to_json,
)
from .topology import (
    AssortativityResult,
    ClusteringProfile,
    ClusteringResult,
    InsufficientDataError,
    ReciprocityResult,
    ScaleFreeResult,
    assortativity,
    clustering,
    clustering_by_degree_fit,
    clustering_profile,
    neighbour_pair_distances,
    reciprocity,
    scale_free_metric,
)

__version__ = VERSION
