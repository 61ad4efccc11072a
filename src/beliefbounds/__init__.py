"""Guaranteed anytime bounds on discrete Bayesian-network posteriors.

The pipeline conditions on a cutset, evaluates the h most probable cutset
tuples exactly, and bounds the truncated remainder with a plug-in bounder;
assembly yields intervals on every posterior marginal and on P(e) that are
sound at any h and collapse to the exact answers at h = M.
"""

from .bounder import (
    BlanketLp,
    ChainPropagationBounder,
    JointBounder,
    MarginalBounds,
    PartialTupleBounds,
    PriorMassBounder,
    make_bounder,
    propagate_marginal_bounds,
    solve_blanket_lp_greedy,
)
from .engine import (
    BoundsReport,
    EngineInputs,
    bounded_conditioning_bounds,
    compute_report,
    evidence_bounds,
    marginal_bounds,
    prepare_inputs,
    remainder_interval_bound,
    run_engine,
    select_and_bound,
)
from .exact import (
    ScopeCapError,
    ZeroEvidenceError,
    bucket_eliminate_marginals,
    bucket_eliminate_pe,
    eliminate,
    eliminate_marginals,
    enumerate_oracle,
)
from .graphs import (
    Cutset,
    find_loop_cutset,
    find_w_cutset,
    is_loop_cutset,
)
from .harness import (
    ExperimentConfig,
    MetricsSummary,
    coverage_pct,
    dumps_canonical,
    mean_interval,
    midpoint_error,
    run_experiment,
    summarize,
)
from .model import (
    BayesianNetwork,
    Cpt,
    NetworkFormatError,
    Variable,
    parse_evidence,
    parse_network,
    validate_evidence,
    validate_network,
)
from .tuples import (
    ActiveTupleSet,
    TruncatedTree,
    build_truncated_tree,
    select_tuples_gibbs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
