"""Wavelet-leader multifractal analysis toolkit.

Submodules
----------
core       signals, RNG streams, regression, normal quantiles, CSV I/O
wavelet    Daubechies DWT, leader pyramids, structure/scaling functions
synth      synthetic process generators (fBm, MRW, cascades, wavelet series)
cumulants  log-cumulant (c1, c2) estimation with CLT/bootstrap intervals
stattests  Shapiro-Wilk, QQ data, log-concave MLE and its permutation test
rwstail    exact leader CDF and tail-bound envelopes for random wavelet series
cli        command-line frontend with reproducible run manifests
"""

from .core import (DataError, LeaderLabError, NonConvergenceError,
                   RegimeError, RegressionFit, RngSpec, Signal, linfit,
                   read_signal, standard_normal_quantile, write_signal)
from .cumulants import (C1C2Estimate, CumulantFit, EstimateWithCI,
                        berry_esseen_bound, bootstrap_percentile,
                        default_scale_candidates, estimate_c1_c2, fit_cm,
                        log_cumulants_per_scale, select_scale_range)
from .rwstail import (MonteCarloCdf, RwsModel, SmallABounds, TailBoundReport,
                      gg_cdf, large_A_bound, leader_cdf_exact,
                      leader_cdf_monte_carlo, mills_bounds, small_A_bounds,
                      verify_tail_rates)
from .stattests import (LogConcaveMLE, TestReport, fit_logconcave_mle,
                        interval_discrepancy, logconcavity_test, qq_data,
                        sample_from_mle, shapiro_wilk)
from .synth import (GenGaussianParams, ProcessSpec, gen_cmc_motion,
                    gen_cpc_motion, gen_fbm, gen_mrw, gen_rws,
                    gen_rws_pyramid, generate, sample_gen_gaussian)
from .wavelet import (CoefficientPyramid, LeaderPyramid,
                      StructureFunctionTable, WaveletBasis, basis_from_name,
                      compute_leaders, daubechies_basis, dwt, hmin_regression,
                      idwt, legendre_spectrum, pyramid_from_json,
                      pyramid_to_json, scaling_function, structure_functions)

__version__ = "0.1.0"
