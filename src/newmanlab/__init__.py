"""Exact-arithmetic laboratory for squares of 0/1-coefficient polynomials."""

__version__ = "0.1.0"

from .poly import (  # noqa: F401
    NewmanPolynomial,
    RatioReport,
    format_polynomial,
    metrics,
    parse_polynomial,
    square,
    square_oracle,
)
from .concentration import (  # noqa: F401
    bad_event_E_bound,
    c_epsilon,
    choose_epsilon,
    tail_bound,
)
from .sparsify import (  # noqa: F401
    BadEventFlags,
    CoefficientSplit,
    KeepMask,
    SparsifyConfig,
    SparsifyTrial,
    TrialRecord,
    alpha_of,
    expectation_oracle,
    expected_square_coeff,
    sample,
    split_coefficient,
    theorem_conclusion_check,
    verify_hypothesis,
)
from .search import (  # noqa: F401
    SearchResult,
    SearchSpec,
    exhaustive_search,
    local_search,
)
from .experiment import (  # noqa: F401
    CampaignConfig,
    emit_results,
    parse_campaign_file,
    run_campaign,
)
