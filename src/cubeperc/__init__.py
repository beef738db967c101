"""cubeperc: site percolation on the d-dimensional hypercube.

Sampling, exact component labeling at 2^d scale, DFS-coupled lazy
exposure, subcube algebra, structure checkers for the supercritical
analysis, and a two-round sprinkling pipeline with an experiment
harness and CLI.
"""

from .checkers import (
    ViolationReport,
    binomial_tail,
    cherry_count,
    check_expansion,
    check_neighbourhood_lemma,
    check_sphere2_density,
    check_squid,
    chernoff_comparison,
    tree_count_bound,
    tree_count_exact,
)
from .cube import (
    Cycle,
    Hypercube,
    Subcube,
    build_pivot_subcubes,
    common_neighbors,
    external_neighborhood,
    hamming_distance,
    separate_into_subcubes,
    sphere2,
)
from .errors import InputDomainError, RefusalError
from .harness import (
    TrialConfig,
    TrialFailure,
    giant_statistics,
    make_grid,
    parse_record,
    read_records,
    record_to_json,
    run_trial,
    second_component_scaling,
    sweep,
)
from .harness import VERSION as __version__
from .percolation import (
    ComponentLabeling,
    PercolationSample,
    components,
    dfs_explore,
    label_members,
    largest_two,
    sample_sites,
    two_round_plan,
    union_samples,
)
from .sprinkling import (
    MergeAnalysis,
    MergeReport,
    c1_constant,
    c_constant,
    classify_tms,
    merge_analysis,
    survival_census,
)

__all__ = [
    "__version__",
    "InputDomainError",
    "RefusalError",
    "Hypercube",
    "Cycle",
    "Subcube",
    "hamming_distance",
    "sphere2",
    "common_neighbors",
    "external_neighborhood",
    "separate_into_subcubes",
    "build_pivot_subcubes",
    "PercolationSample",
    "ComponentLabeling",
    "sample_sites",
    "union_samples",
    "two_round_plan",
    "components",
    "label_members",
    "dfs_explore",
    "largest_two",
    "ViolationReport",
    "check_expansion",
    "check_sphere2_density",
    "cherry_count",
    "check_neighbourhood_lemma",
    "binomial_tail",
    "chernoff_comparison",
    "tree_count_exact",
    "tree_count_bound",
    "check_squid",
    "MergeReport",
    "MergeAnalysis",
    "classify_tms",
    "c1_constant",
    "c_constant",
    "merge_analysis",
    "survival_census",
    "TrialConfig",
    "TrialFailure",
    "run_trial",
    "sweep",
    "make_grid",
    "giant_statistics",
    "second_component_scaling",
    "record_to_json",
    "parse_record",
    "read_records",
]
