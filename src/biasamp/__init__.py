"""Group risk disparities in high-dimensional ridge regression.

Deterministic-equivalent risk theory for ridge regression with and without
random projections on a two-group Gaussian mixture, a matching finite-size
Monte-Carlo simulator, and a sweep harness that compares the two.
"""

from .spectra import (JointSpectrum, ScalingRegime, diatomic_core_size, dof,
                      make_diatomic, make_isotropic, make_power_law)
from .fixed_point import (FixedPointError, RPJointConstants, RPSeparateConstants,
                          UnregularizedRPConstants, solve_kappa, solve_mp,
                          solve_rp_separate, solve_theta0)
from .risk import (BiasAmpMetrics, RiskDecomposition, TheorySummary, metrics,
                   power_law_limits, rp_separate_risk_unregularized, theory_risks)
from .simulate import (Dataset, MonteCarloReport, Population, exact_risk,
                       fit_classical, fit_rp, monte_carlo, sample_dataset)
from .sweep import SweepConfig, SweepResult, emit_csv, run_sweep
from .svg import emit_svg

__version__ = "0.1.0"
