"""Exact references at depths 2 and 3 from depth-1 ones.

A depth-1 table f1 lifted to depth k and moved by the coboundary of a
random depth-(k-1) table u (oracles.lift) has the pressure and the fiber
growth rate of f1 on every scope: lambda_N(f + u o sigma - u) =
lambda_N(f). On Z^k a character h = <theta, v(letter)> vanishes on the
kernel N, so lambda_N(f + h) = lambda_N(f) as well. The lifted tables are
asymmetric, so on Z^k they run the twisted Newton loop and its Hessian on
the left Perron vectors, a path no depth-1 symmetric row reaches.

The exact scopes (the full shift, Z^1-Z^3, Z/2 and S3) must match their
depth-1 value to 1e-12. Free-kill rows are growth fits: they are compared
with the weighted cogrowth oracle within 3 sigma, which leaves their bias
(about 2.3-2.6 sigma low here) visible."""

import numpy as np
import pytest

import oracles
from conftest import FK3_KILLED_0BASED, make_bundle
from freeshift import FreeAbelianQuotient, Potential, restricted_pressure

BUNDLE = make_bundle()
SCOPES = {"full": (2, None)} | {name: (d, q)
                                for name, (d, q, _) in BUNDLE.items()}
CASES = [(name, depth, seed) for name in SCOPES for depth in (2, 3)
         for seed in (1, 2)]


def _case(d, depth, seed):
    """Seeded letter values f1, uniform(-1, 1), and a lift table u over
    the (depth-1)-words, uniform(-2, 2)."""
    rng = np.random.default_rng([depth, seed])
    f1 = rng.uniform(-1, 1, 2 * d)
    u = {w: rng.uniform(-2, 2) for w in oracles.brute_words(d, depth - 1)}
    return rng, f1, u


def _lifted(d, depth, f1, u):
    return Potential.from_table(d, depth, oracles.lift(f1, depth, u))


@pytest.mark.parametrize("name, depth, seed", CASES)
def test_coboundary_lift_keeps_the_pressure(name, depth, seed):
    d, quotient = SCOPES[name]
    _, f1, u = _case(d, depth, seed)
    got = restricted_pressure(_lifted(d, depth, f1, u), quotient)
    if got.method == "extrapolated":
        exact = oracles.freekill_pressure(f1, FK3_KILLED_0BASED)
        assert abs(got.value - exact) <= 3 * got.sigma
        return
    ref = restricted_pressure(Potential.from_letter_values(d, f1), quotient)
    assert got.sigma == 0.0
    assert abs(got.value - ref.value) <= 1e-12
    if isinstance(quotient, FreeAbelianQuotient):
        assert got.detail["eigen_solves"] > 1      # the Newton loop ran


@pytest.mark.parametrize("name, depth, seed",
                         [c for c in CASES if c[0] in ("z1", "z2", "z3")])
def test_character_shift_keeps_the_abelian_pressure(name, depth, seed):
    d, quotient = SCOPES[name]
    rng, f1, u = _case(d, depth, seed)
    theta = rng.uniform(-1, 1, quotient.rank)
    h = [float(np.dot(theta, quotient.letter_image(a)))
         for a in range(2 * d)]
    got = restricted_pressure(_lifted(d, depth, f1 + h, u), quotient)
    ref = restricted_pressure(Potential.from_letter_values(d, f1), quotient)
    assert np.abs(h).max() > 0.1
    assert abs(got.value - ref.value) <= 1e-12
