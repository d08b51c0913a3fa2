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


def coinduced_xext(module, coords):
    """A crossed extension B >-> I -> E ->> C of the degree-3 class at coords.

    C must act trivially on B.  I = Map(C, B) with (c * phi)(x) = phi(x + c),
    B embeds as the constant maps, and E is the extension of C by I/B with
    cocycle h(c1, c2)(x) = f(x, c1, c2) (Brown, *Cohomology of Groups*, III.5
    and IV.5).
    """
    from bfly.bridges import extension_from_2cocycle
    from bfly.butterflies import build_crossed_extension
    from bfly.cohomology import build_cochain, cohomology
    from bfly.crossed import build_crossed_module
    from bfly.groups import _group, _hom, compose, quotient_by

    c, b = module.base, module.coeff
    nc, nb = c.order, b.order
    f = cohomology(module, 3).representative(coords).values
    phis = np.indices((nb,) * nc).reshape(nc, -1).T               # phi as rows phi(x)
    code = nb ** np.arange(nc - 1, -1, -1)
    i_grp = _group(b.table[phis[:, None], phis[None]] @ code)
    iota = _hom(b, i_grp, np.arange(nb) * code.sum())
    shifted = phis[:, c.table].transpose(2, 0, 1) @ code            # [c, phi] = c * phi
    q_grp, proj = quotient_by(i_grp, iota.map)
    reps = np.unique(proj.map, return_index=True)[1]
    q_mod = build_cmodule(c, q_grp, proj.map[shifted[:, reps]])
    h = proj.map[np.moveaxis(f, 0, -1) @ code]                      # [c1, c2] = h(c1, c2)
    ext = extension_from_2cocycle(build_cochain(q_mod, 2, h))
    bnd = compose(ext.kernel_arrow, proj)
    xm = build_crossed_module(bnd, build_action(ext.middle, i_grp, shifted[ext.quotient_arrow.map]))
    return build_crossed_extension(iota, xm, ext.quotient_arrow)


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
