"""The pool of (form, t) inputs the workloads draw from, and its verifier.

Every entry satisfies the hypotheses of the paper, so that a later
hypothesis gate in sievelab cannot turn benchmark jobs into failures:

* the form is indefinite and certified anisotropic over Q (some place
  obstructs a nontrivial zero);
* d(f) is an integer and |d(f) t| is square-free, with every prime factor
  of 2 d(f) t in B = {2, 3, 5, 7}, so no bad prime lies outside B;
* d(f) t has an odd prime factor, which sits inside every local table, so
  primes that a closed form cannot cover stay counted;
* a33 != 0, and f = t has an integer point of max-norm <= 6.

The list was drawn from a deterministic search over small coefficients
and is frozen here; ``problems`` re-verifies each entry with the
benchmark's own arithmetic (the benchmark's tests run it on the whole
pool).  More than half of the entries are non-diagonal.
"""

import itertools

from .arith import (BAD_SET, det, diagonal_entries, eval_form, factor,
                    is_squarefree, obstructed_places)

REFERENCE = ("1,1,-3,0,0,0", 1)

POOL = [
    ("-2,-3,7,0,0,0", 1),
    ("-2,1,5,0,0,0", 3),
    ("-1,-2,7,0,0,0", -1),
    ("-1,2,3,0,0,0", 1),
    ("-1,3,-1,0,0,0", -1),
    ("-1,5,7,0,0,0", -2),
    ("1,-5,-3,0,0,0", -2),
    ("1,-3,-2,0,0,0", 1),
    ("1,-3,-2,0,0,0", 5),
    ("1,-2,-5,0,0,0", 1),
    ("1,-2,-3,0,0,0", -1),
    ("1,-2,5,0,0,0", 3),
    ("1,3,-2,0,0,0", 5),
    ("1,5,-3,0,0,0", -2),
    ("1,5,-2,0,0,0", 1),
    ("2,-3,-1,0,0,0", -1),
    ("2,5,-3,0,0,0", -1),
    ("3,-5,1,0,0,0", 2),
    ("3,-2,-7,0,0,0", 1),
    ("3,-1,-1,0,0,0", 1),
    ("-3,-1,1,2,0,2", 2),
    ("-2,-2,3,0,0,2", 5),
    ("-2,-1,1,0,-2,2", 1),
    ("-1,1,5,1,1,1", -1),
    ("-1,2,-7,2,0,0", 1),
    ("-1,2,-3,2,-2,0", 3),
    ("-1,2,-2,0,-2,2", -2),
    ("-1,2,-1,0,0,2", -2),
    ("-1,2,1,2,-2,0", 3),
    ("-1,2,5,2,0,0", 2),
    ("-1,2,5,2,0,2", 5),
    ("-1,5,-7,0,-2,0", -1),
    ("-1,5,-5,0,-2,2", -1),
    ("1,-5,7,0,-2,0", -1),
    ("1,-2,-5,2,-2,2", 5),
    ("1,-2,-2,2,0,2", 1),
    ("1,-2,-1,0,-2,2", -2),
    ("1,-1,5,-1,1,0", -1),
    ("1,2,-7,2,0,0", 3),
    ("1,3,-3,0,1,1", 3),
    ("1,3,-2,2,-2,2", -1),
    ("1,3,-1,2,-2,0", 1),
    ("2,-5,1,2,-2,0", 1),
    ("2,-1,-3,2,0,2", 3),
    ("2,1,-1,0,-2,2", 2),
    ("2,5,-2,1,1,1", 2),
    ("3,1,-5,-1,1,0", 3),
    ("3,2,-1,2,0,0", 2),
]


def coefficients(form: str) -> tuple[int, ...]:
    return tuple(int(v) for v in form.split(","))


def problems(form: str, t: int) -> list[str]:
    """Why (form, t) does not belong in the pool; empty when it does."""
    c = coefficients(form)
    out = []
    d = det(c)
    if d == 0 or d.denominator != 1:
        return [f"d(f) = {d} is not a nonzero integer"]
    dt = int(d) * t
    if not is_squarefree(dt):
        out.append(f"|d(f) t| = {abs(dt)} is not square-free")
    if not set(factor(2 * dt)) <= BAD_SET:
        out.append(f"2 d(f) t = {2 * dt} has a prime outside B")
    if not any(p % 2 for p in factor(dt)):
        out.append(f"d(f) t = {dt} has no odd prime")
    signs = {x > 0 for x in diagonal_entries(c)}
    if len(signs) != 2:
        out.append("form is definite")
    if not obstructed_places(c):
        out.append("form is not certified anisotropic")
    if c[2] == 0:
        out.append("a33 = 0")
    if not any(eval_form(c, x) == t for x in itertools.product(range(-6, 7), repeat=3)):
        out.append("no integer point of max-norm <= 6")
    return out
