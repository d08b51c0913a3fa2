"""Shared fixtures: small groups and modules used across the test suite."""

import numpy as np
import pytest

from bfly.actions import build_action, build_cmodule, trivial_module
from bfly.cohomology import cyclic_group
from bfly.groups import build_group


def s3_table() -> np.ndarray:
    """Composition table of the six permutations of {0,1,2}.

    Built independently from permutation composition so it can serve as an
    oracle for semidirect-product constructions.
    """
    perms = [
        (0, 1, 2), (1, 2, 0), (2, 0, 1),
        (0, 2, 1), (2, 1, 0), (1, 0, 2),
    ]
    index = {p: i for i, p in enumerate(perms)}
    table = np.zeros((6, 6), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(3))]
    return table


def relabelled(g, seed):
    """g with its non-identity elements permuted: the same group, another table."""
    perm = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(g.order - 1)])
    table = np.empty_like(g.table)
    table[np.ix_(perm, perm)] = perm[g.table]
    return build_group(table)


@pytest.fixture(scope="session")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def z3():
    return cyclic_group(3)


@pytest.fixture(scope="session")
def z4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def s3():
    return build_group(s3_table(), name="S3")


@pytest.fixture(scope="session")
def z2_z2_triv(z2):
    return trivial_module(z2, z2)


@pytest.fixture(scope="session")
def z3_z3_triv(z3):
    return trivial_module(z3, z3)


@pytest.fixture(scope="session")
def z2_z3_inv(z2, z3):
    act = build_action(z2, z3, [[0, 1, 2], [0, 2, 1]])
    return build_cmodule(z2, z3, act)
