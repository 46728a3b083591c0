"""Shared fixtures: the bundled example quotients, each paired with
independent oracle group operations (built from oracles.py helpers, never
from library internals) so tests can cross-check fiber enumeration."""

import numpy as np
import pytest

import oracles
from freeshift import (FiniteQuotient, FreeAbelianQuotient, FreeKillQuotient,
                       GeometricPotential, Potential)

# construction data for the bundled examples, shared by library fixtures
# and oracle ops so both sides are built from the same declarations
Z1_VECS = [[1], [0]]            # abelianization of F2 onto Z, b killed
Z2_VECS = [[1, 0], [0, 1]]      # abelianization of F2
Z3_VECS = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
ZMOD2_TABLE = [[0, 1], [1, 0]]
ZMOD2_IMAGES = [1, 1]
FK3_KILLED_0BASED = {2}


def _s3_data():
    # S3 as permutations of 3 points, generated by a transposition and a
    # 3-cycle (the two generator images of F2)
    swap, cycle = (1, 0, 2), (1, 2, 0)
    elems, table, ident, index = oracles.perm_group_table([swap, cycle])
    return table, ident, [index[swap], index[cycle]]


def _letter_vectors(gen_vectors):
    out = []
    for v in gen_vectors:
        out.append(tuple(v))
        out.append(tuple(-x for x in v))
    return out


def _finite_ops(table, ident, images):
    order = len(table)

    def inv_of(g):
        return next(x for x in range(order) if table[g][x] == ident)

    img_map = {}
    for k, g in enumerate(images):
        img_map[2 * k] = g
        img_map[2 * k + 1] = inv_of(g)

    return ident, img_map.__getitem__, lambda a, b: table[a][b]


def make_bundle():
    """name -> (d, quotient, (identity, img, mul)) for every bundled
    example quotient."""
    table, ident, images = _s3_data()
    bundle = {
        "z1": (2, FreeAbelianQuotient(2, 1, Z1_VECS),
               oracles.abelian_ops(1, _letter_vectors(Z1_VECS))),
        "z2": (2, FreeAbelianQuotient(2, 2, Z2_VECS),
               oracles.abelian_ops(2, _letter_vectors(Z2_VECS))),
        "z3": (3, FreeAbelianQuotient(3, 3, Z3_VECS),
               oracles.abelian_ops(3, _letter_vectors(Z3_VECS))),
        "zmod2": (2, FiniteQuotient(2, ZMOD2_TABLE, 0, ZMOD2_IMAGES),
                  _finite_ops(ZMOD2_TABLE, 0, ZMOD2_IMAGES)),
        "s3": (2, FiniteQuotient(2, table, ident, images),
               _finite_ops(table, ident, images)),
        "fk3": (3, FreeKillQuotient(3, FK3_KILLED_0BASED),
                oracles.freekill_ops(FK3_KILLED_0BASED)),
    }
    return bundle


@pytest.fixture(scope="session")
def bundle():
    return make_bundle()


def _cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def make_finite_cases():
    """name -> (d, quotient, (identity, img, mul)) for finite quotients of
    F_2 and F_3, among them cyclic groups where some generator maps to the
    identity."""
    table, ident, (swap, cycle) = _s3_data()
    cases = {"zmod2": (ZMOD2_TABLE, 0, ZMOD2_IMAGES),
             "s3": (table, ident, [swap, cycle]),
             "zmod2 [1,1,1]": (ZMOD2_TABLE, 0, [1, 1, 1]),
             "s3 [swap,cycle,id]": (table, ident, [swap, cycle, ident])}
    for n, images in ((3, [1, 0]), (4, [2, 1]), (5, [0, 0, 1]),
                      (6, [3, 2])):
        cases[f"z/{n} {images}"] = (_cyclic_table(n), 0, images)
    return {name: (len(images), FiniteQuotient(len(images), t, e, images),
                   _finite_ops(t, e, images))
            for name, (t, e, images) in cases.items()}


@pytest.fixture(scope="session")
def finite_cases():
    return make_finite_cases()


@pytest.fixture(scope="session")
def z2():
    return FreeAbelianQuotient(2, 2, Z2_VECS)


@pytest.fixture(scope="session")
def z1():
    return FreeAbelianQuotient(2, 1, Z1_VECS)


@pytest.fixture(scope="session")
def z3():
    return FreeAbelianQuotient(3, 3, Z3_VECS)


@pytest.fixture(scope="session")
def zmod2():
    return FiniteQuotient(2, ZMOD2_TABLE, 0, ZMOD2_IMAGES)


@pytest.fixture(scope="session")
def s3():
    table, ident, images = _s3_data()
    return FiniteQuotient(2, table, ident, images)


@pytest.fixture(scope="session")
def fk3():
    return FreeKillQuotient(3, FK3_KILLED_0BASED)


@pytest.fixture(scope="session")
def two_ratio_zeta():
    # contraction ratios (1/2, 1/2, 1/3, 1/3) per letter
    vals = [np.log(0.5), np.log(0.5), np.log(1 / 3), np.log(1 / 3)]
    return GeometricPotential.from_letter_values(2, vals)


@pytest.fixture(scope="session")
def quarter_zeta():
    return GeometricPotential.constant(2, np.log(0.25))


@pytest.fixture(scope="session")
def psi_minus_one():
    return Potential.constant(2, -1.0)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in RESULTS:
        terminalreporter.write_line(line)
