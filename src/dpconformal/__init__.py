"""Full-data differentially private conformal prediction.

The package trains models with DP-SGD, accounts the privacy spend with an
RDP accountant for subsampled Gaussian mechanisms, calibrates a
conservative buffered right-endpoint quantile search against the remaining
budget, and evaluates the resulting prediction sets next to split-based
baselines.
"""

from .accounting import (BudgetSpec, InfeasibleBudgetError, RdpProfile,
                         SgdAccountingRecord, calibrate_sigma_q,
                         calibrate_sigma_sgd, default_orders, gdp_compose,
                         rdp_compose, rdp_gaussian, rdp_subsampled_gaussian,
                         rdp_to_eps, sgd_profile)
from .conformal import EvalReport, PipelineConfig, run_pipeline
from .data import (StandardizationStats, apply_standardizer, fit_standardizer,
                   gen_logistic, gen_multiclass, load_csv)
from .models import Dataset, ModelSpec, loss_and_grad
from .quantile import (QuantileConfig, QuantileResult, buffered_right_search,
                       exact_conformal_quantile, midpoint_search,
                       noise_correction_tau, stability_buffer, target_rank)
from .training import (CouplingTrace, TrainConfig, TrainedModel,
                       coupled_train, dp_sgd_train, poisson_sample,
                       stability_bound_smooth, stability_bound_universal)

__version__ = "0.1.0"
