"""Exit times of planar Brownian motion in comb and slit domains.

Analytic rectangle/strip series kernels, a certificate checker for moment
finiteness, two cross-validating Monte Carlo engines, censoring-aware tail
estimators, and a staged builder for one-sided combs with exact
half-moment lower bounds.
"""

from .adversarial import AdversarialTrace, build_adversarial
from .checker import (
    FINITE_CERTIFIED,
    INCONCLUSIVE,
    Verdict,
    check_refined_unit,
    check_theorem1,
    geometric_threshold,
)
from .engine import (
    ExitSample,
    SampleSet,
    SimParams,
    WindowEscapeError,
    run_batch,
    simulate_exit,
)
from .estimators import (
    FINITE_LIKELY,
    INFINITE_LIKELY,
    UNCERTAIN,
    MomentEstimate,
    TailDiagnostic,
    estimate_moment,
    moment_verdict,
    survival_curve,
    synthetic_sample_set,
    tail_index,
)
from .geometry import (
    CombDomain,
    CombSpec,
    ExplicitSlits,
    GeometricGaps,
    HalfPlane,
    PolynomialGaps,
    Rectangle,
    UniformGaps,
    VerticalStrip,
    Wedge,
    build_comb,
    domain_fingerprint,
    domain_from_config,
    domain_to_config,
    symmetrize,
)
from .series import (
    Theta0Result,
    disk_survival,
    strip_half_moment,
    strip_moment,
    theta0,
)

__version__ = "0.1.0"
