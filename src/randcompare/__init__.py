"""Tests of no treatment effect in two-treatment comparative experiments.

Process-based, randomization-based and selection-based procedures over
potential-outcome tables: resampling tests with exact and Monte Carlo
p-value engines, closed-form tests with asymptotic p-values, plus a
size/power simulation harness.
"""
from .core import (
    AssignmentVector,
    Hypothesis,
    ObservedBlock,
    ObservedExperiment,
    PotentialTable,
    RealizedEffects,
    SampleVector,
    hypothesis_implies,
    realized_effects,
    select_components,
)
from .datasets import LoadedDataset, bundled_dataset_path, dataset_summary, load_dataset
from .designs import (
    CensusCRD,
    ENUMERATION_CAP,
    Explicit,
    ExplicitJoint,
    RNG_ALGORITHM,
    RngStream,
    UniformCRD,
    check_both_arm_inclusion,
    explicit_from_json,
    sample_assignment,
    support_label_matrix,
)
from .errors import (
    BoundsError,
    DataValidationError,
    DegenerateDataError,
    DesignInvalidError,
    EnumerationTooLargeError,
    InsufficientDataError,
    NoncomputableDistributionError,
    RandcompareError,
    UnknownScenarioError,
    UnsupportedDesignError,
)
from .inference import (
    ExactEngine,
    MonteCarloEngine,
    TestReport,
    add_one_pvalue,
    fisher_exact_2x2,
    fisher_randomization_test,
    fisher_selection_test,
    neyman_randomization_test,
    neyman_selection_test,
    permutation_test,
    pooled_t_test,
    welch_t_test,
    wilcoxon_test,
)
from .simulation import (
    DEFAULT_TEST_SUITE,
    Bernoulli,
    CorrelatedBernoulliPair,
    GammaLaw,
    Identity,
    Normal,
    PowerEstimate,
    REFERENCE_RATES,
    Scale,
    ScaleAboutMean,
    ScaleWithNoise,
    Scenario,
    Shift,
    ShiftWithCenteredNoise,
    UniformMixture,
    draw_fixed_population,
    fixed_binary_vectors,
    generate_population,
    get_scenario,
    known_scenarios,
    load_scenario_file,
    random_deviates,
    run_size_power,
)
from .special import erfc, normal_cdf, regularized_incomplete_beta, student_t_cdf
from .stats import (
    d_affine_form,
    d_statistic,
    neyman_se,
    pooled_se,
    rank_midranks,
    rank_sum_statistic,
    resolve_weights,
    sample_variance,
    welch_df,
    welch_se,
)

__version__ = "0.1.0"
