"""Desk-scale laboratory for weighted sieves and almost-prime quadric points.

Layout:

    numerics        Fejer quadrature and Chebyshev primitives, derivatives
    sieve_functions linear-sieve F(s), f(s)
    thresholds      almost-prime thresholds, Halberstam-Richert m(zeta), constants
    quadforms       exact ternary quadratic form arithmetic and isotropy
    binary_forms    binary quadratic representations behind the slices
    localdata       counts and densities mod p, bad primes
    lattice_points  ball enumeration, weighted sequences, census, automorphs
    cli             `sievelab` command-line front end
"""

__version__ = "0.1.0"
