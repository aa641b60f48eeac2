"""Level-compressed tries with partial fillup.

Build binary tries over seeded random or user-supplied keys, compress them
through their alpha-fillup levels, query longest prefix matches, evaluate the
exact occupancy expectations and level predictors, and run reproducible Monte
Carlo experiments tying the two together.
"""

from .source import (
    DuplicateKeyError,
    IndistinguishableKeysError,
    Key,
    KeyExhaustedError,
    KeyFileError,
    KeySet,
    NestedKeyError,
    SourceParams,
    generate_keys,
    load_keys,
    prefix_log_probability,
    prefix_probability,
)
from .trie import (
    DepthCapError,
    LevelProfile,
    UndefinedFillupError,
    alpha_fillup_level,
    count_filled_oracle,
    tabulate_profile,
)
from .lctrie import (
    AlcNode,
    AlcTrie,
    DepthSample,
    StructureStats,
    compress,
    depth,
    designated_depth,
    longest_prefix_match,
    structure_stats,
)
from .analysis import (
    ModelParams,
    SourceConstants,
    binomial_tail_normal_approx,
    depth_constant,
    expected_fill_fraction,
    normal_cdf,
    normal_quantile,
    predict_full_fillup,
    predict_level_calibrated,
    predict_level_closed_form,
    prefix_poisson_mean,
    prob_binomial_ge2,
    prob_poisson_ge2,
    source_constants,
    threshold_ones_count,
)
from .montecarlo import (
    DepthSummary,
    ExperimentConfig,
    FillFractionEstimate,
    FillupHistogram,
    Report,
    compare_report,
    estimate_fill_fraction,
    estimate_fill_fractions,
    poisson_sample,
    simulate_depth,
    simulate_fillup,
    total_variation,
)

__version__ = "0.1.0"
