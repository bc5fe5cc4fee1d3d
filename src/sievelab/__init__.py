"""Desk-scale laboratory for weighted sieves and almost-prime quadric points.

Layout:

    numerics        adaptive quadrature, golden-section search, derivatives
    sieve_functions linear-sieve F(s), f(s), Halberstam-Richert bound
    thresholds      almost-prime thresholds and constant reproduction
    quadforms       exact ternary quadratic form arithmetic and isotropy
    localdata       counts and densities mod p, bad primes, solvability
    lattice_points  ball enumeration, weighted sequences, census, automorphs
    cli             `sievelab` command-line front end
"""

from .numerics import (EULER_GAMMA, MinimizeResult, QuadratureSpec,
                       derivative_central, integrate, minimize_scalar)
from .quadforms import (IsotropyCertificate, TernaryForm, det_form, diagonalize,
                        eval_form, hilbert_symbol, is_isotropic_Q, signature,
                        transform)
from .sieve_functions import BETA, TWO_E_GAMMA, F_lin, f_lin, hr_upper
from .thresholds import (ThresholdReport, admissible_r, dh_threshold_linear,
                         linear_threshold, m_zeta, minimize_m,
                         reproduce_constants, tau_from_theta,
                         threshold_components)
from .localdata import (BAD_SET, LocalDensityTable, bad_primes, build_local_table,
                        cassels_count, count_V0_mod_p, count_Vt_mod_p, legendre,
                        omega_d, omega_over_p, raw_omega_over_p, solvable_mod)
from .lattice_points import (AutomorphSet, WeightedSequence, build_sequence,
                             census, enumerate_points, find_automorphs,
                             level_statistic, omega_B_count, orbit_partition,
                             residual_Rd, weight_FT)

__version__ = "0.1.0"

__all__ = [
    "EULER_GAMMA", "MinimizeResult", "QuadratureSpec", "derivative_central",
    "integrate", "minimize_scalar",
    "IsotropyCertificate", "TernaryForm", "det_form", "diagonalize",
    "eval_form", "hilbert_symbol", "is_isotropic_Q", "signature", "transform",
    "BETA", "TWO_E_GAMMA", "F_lin", "f_lin", "hr_upper",
    "ThresholdReport", "admissible_r", "dh_threshold_linear",
    "linear_threshold", "m_zeta", "minimize_m", "reproduce_constants",
    "tau_from_theta", "threshold_components",
    "BAD_SET", "LocalDensityTable", "bad_primes", "build_local_table",
    "cassels_count", "count_V0_mod_p", "count_Vt_mod_p", "legendre",
    "omega_d", "omega_over_p", "raw_omega_over_p", "solvable_mod",
    "AutomorphSet", "WeightedSequence", "build_sequence", "census",
    "enumerate_points", "find_automorphs", "level_statistic", "omega_B_count",
    "orbit_partition", "residual_Rd", "weight_FT",
    "__version__",
]
