"""Spectral Favard analysis of banded Hessenberg matrices with positive
bidiagonal factorization, and the Markov chains they generate."""

__version__ = "1.0.0"

from .errors import (ConfigError, FactorizationError,
                     IllConditionedSpectrumError, InsufficientDataError,
                     InvalidGeneratorError, InvalidInputError,
                     MultihessError, NormalizationError, NumericRangeError,
                     PoleError, PreconditionError)
from .generator import (GeneratorSequence, generator_from_json,
                        generator_from_json_dict)
from .markov import (FiniteChain, StochasticFactorization, factors_to_alphas,
                     finite_chain, first_return_gf, km_power,
                     recurrence_diagnostic, return_probability_gf,
                     semi_infinite_chain, stationary_distribution,
                     stationary_power_iteration, to_stochastic_factors)
from .montecarlo import SimulationReport, simulate_chain
from .pbf import (BandedHessenberg, InitialConditionData, assemble_truncation,
                  darboux, entry, initial_conditions, oscillatory_check,
                  script_L)
from .polynomials import (cd_first, cd_second, determinantal_identity,
                          eval_second_kind, eval_truncated, eval_type_i,
                          eval_type_ii, h_values, q_oracle)
from .quadrature import (QuadratureRule, exactness_profile, gauss_rule,
                         minimal_truncation, precision_degree,
                         reference_moment, sharpness_scan)
from .spectral import (SpectralDecomposition, decompose, eigenvalue_pair,
                       eigenvalues, interlacing_check, moments_matvec,
                       weyl_partial_fractions, weyl_rational,
                       weyl_resolvent)

__all__ = [name for name in dir() if not name.startswith("_")]
