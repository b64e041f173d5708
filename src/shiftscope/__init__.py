"""shiftscope: accuracy-change estimation under sparse joint shift."""

from .baselines import run_bbse, run_dlu, run_kliep
from .data import (
    Column,
    FeatureSchema,
    ShiftReport,
    TabularDataset,
    align_schemas,
    load_dataset,
    load_schema,
    save_dataset,
    save_schema,
    validate_dataset,
)
from .estimator import (
    GroundTruth,
    Pair,
    estimate_gap,
    run_method,
    score_gap,
    score_weights,
    select_features,
    source_accuracy,
)
from .predictor import LogisticModel, load_predictions, predict, train_logistic
from .sees_c import BasisSet, SeesCConfig, default_basis, feature_scores, run_sees_c, sees_c_objective
from .sees_d import (
    CandidateFit,
    SeesDConfig,
    enumerate_kappas,
    fit_candidate,
    run_sees_d,
)
from .synth import (
    AnalyticDistribution,
    ShiftSpec,
    apply_shift,
    age_case_pair,
    identifiable_fixture,
    population_joint,
    pure_covariate_shift,
    pure_label_shift,
    sample_analytic,
    counterexample_fixture,
)
from .tabulate import (
    LABEL,
    PREDICTION,
    Discretizer,
    EmpiricalPmf,
    apply_discretizer,
    estimate_pmf,
    fit_discretizer,
)
from .weights import BasisWeight, KernelWeight, ModelRatioWeight, TableWeight, WeightFunction

__version__ = "0.1.0"
