"""chaosclt: quantitative normal approximation for finite sums of Wiener
chaoses on finite-dimensional Gaussian spaces.

The package provides exact stationary Gaussian path sampling, symmetric
tensor kernels with closed-form contraction norms on rank-one sums (dense
kernels are an input format), exact chaos sampling and moments, the
explicit bound evaluators, empirical Kolmogorov distances with rate
fitting, and an experiment CLI.
"""

__version__ = "0.1.0"

from .bounds import (BoundReport, RatePrediction, breuer_major_bound,
                     chaos_sum_bound, fgn_rate, nz_ratio_diagnostic, phi,
                     power_variation_bound)
from .chaos import (ChaosSum, SecondChaosSpectrum, kappa3_I2, kappa4_I2,
                    sample, sample_batch, second_moment)
from .distances import EmpiricalSample, RateFit, kolmogorov_distance, rate_fit
from .errors import (NumericalError, UnsupportedRepresentationError,
                     ValidationError)
from .hermite import hermite, hermite_monomial_coeffs
from .kernels import (DenseKernel, RankOneSumKernel, breuer_major_kernels,
                      kernel_from_json, kernel_to_json,
                      rank_one_contraction_norm, rank_one_mixed_inner,
                      rank_one_norm_squared)
from .ratio import Perturbations, RatioFamily, ratio_bound, sample_ratio_batch
from .stationary import (CovarianceFunction, HermiteEvenCoeffs, PathSampler,
                         breuer_major_statistic,
                         exact_variance_power_variation, fgn_covariance,
                         power_variation_mean, sample_paths)
