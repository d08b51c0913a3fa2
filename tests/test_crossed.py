"""Crossed modules, their validators, and the associated internal groupoid."""

import itertools

import pytest

from bfly.actions import build_action, trivial_action
from bfly.butterflies import build_crossed_extension
from bfly.crossed import (
    associated_groupoid,
    build_crossed_module,
    identity_crossed_module,
    zero_boundary_crossed_module,
)
from bfly.errors import PeifferViolation, PreCrossedViolation
from bfly.groups import (
    build_hom,
    compose,
    identity_hom,
    is_short_exact,
    kernel,
    zero_hom,
)


def conjugation_action(parent, sub_elements, sub_group):
    index = {e: i for i, e in enumerate(sub_elements)}
    act = [
        [index[parent.conj(g, e)] for e in sub_elements]
        for g in parent.elements()
    ]
    return build_action(parent, sub_group, act)


def test_inclusion_with_conjugation_is_crossed(s3, z3):
    bnd = build_hom(z3, s3, [0, 1, 2])
    xm = build_crossed_module(bnd, conjugation_action(s3, (0, 1, 2), z3))
    assert xm.act(3, 1) == 2  # a transposition inverts 3-cycles


def test_precrossed_violation_detected(s3, z3):
    bnd = build_hom(z3, s3, [0, 1, 2])
    with pytest.raises(PreCrossedViolation):
        build_crossed_module(bnd, trivial_action(s3, z3))


def test_peiffer_violation_detected(s3):
    # id: S3 -> S3 with the trivial action satisfies the pre-crossed
    # identity only on central pairs, and Peiffer nowhere nonabelian
    with pytest.raises((PeifferViolation, PreCrossedViolation)):
        build_crossed_module(identity_hom(s3), trivial_action(s3, s3))


def test_zero_boundary_crossed_module(z2, z3):
    act = build_action(z2, z3, [[0, 1, 2], [0, 2, 1]])
    xm = zero_boundary_crossed_module(z3, z2, act)
    assert xm.boundary == zero_hom(z3, z2)


def test_identity_crossed_module(s3):
    xm = identity_crossed_module(s3)
    assert xm.act(1, 3) == s3.conj(1, 3)


def test_groupoid_structure(s3, z3):
    bnd = build_hom(z3, s3, [0, 1, 2])
    xm = build_crossed_module(bnd, conjugation_action(s3, (0, 1, 2), z3))
    gpd = associated_groupoid(xm)
    assert gpd.total.order == 18
    # both kernel sections split the opposite leg
    assert compose(gpd.c, gpd.ker_c_section) == zero_hom(z3, s3)
    assert compose(gpd.d, gpd.ker_d_section) == zero_hom(z3, s3)
    assert compose(gpd.d, gpd.unit_section).map.tolist() == list(s3.elements())
    # c restricted to ker(d) recovers the boundary up to sign section
    assert compose(gpd.c, gpd.ker_d_section) == bnd
    assert is_short_exact(gpd.ker_d_section, gpd.d)
    assert is_short_exact(gpd.ker_c_section, gpd.c)


def test_induced_kernel_module(z2, z4, z3):
    # doubling Z4 -> Z4 with the trivial action: kernel {0,2} inherits a
    # trivial Z2-module structure through the mod-2 projection
    bnd = build_hom(z4, z4, [0, 2, 0, 2])
    xm = build_crossed_module(bnd, trivial_action(z4, z4))
    proj = build_hom(z4, z2, [0, 1, 0, 1])
    m = build_crossed_extension(kernel(bnd).embedding, xm, proj).module
    assert m.coeff.order == 2
    assert all(m.xi(c, b) == b for c in range(2) for b in range(2))
    # zero boundary Z3 -> Z2 with inversion: the whole of Z3 is the kernel
    act = build_action(z2, z3, [[0, 1, 2], [0, 2, 1]])
    xm = zero_boundary_crossed_module(z3, z2, act)
    m = build_crossed_extension(identity_hom(z3), xm, build_hom(z2, z2, [0, 1])).module
    assert m.coeff.order == 3
    assert m.xi(1, 1) == 2


def _outcome(build, bnd, act):
    try:
        return build(bnd, act)
    except (PeifferViolation, PreCrossedViolation) as exc:
        return type(exc), str(exc)


def test_crossed_module_scans_match_the_pointwise_loops(s3):
    """Same verdict and same first witness as the parent's double loops."""
    from bfly.catalog import all_actions, klein_group
    from bfly.cohomology import cyclic_group
    from bfly.groups import all_homs
    from reference_loops import ref_build_crossed_module

    actors = [cyclic_group(2), cyclic_group(4), klein_group(), s3]
    objects = [cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_group()]
    outcomes = set()
    for e1, e2 in itertools.product(actors, objects):
        for act in all_actions(e1, e2):
            for bnd in all_homs(e2, e1):
                got = _outcome(build_crossed_module, bnd, act)
                assert got == _outcome(ref_build_crossed_module, bnd, act)
                outcomes.add(got[0] if isinstance(got, tuple) else "ok")
    for act in (trivial_action(s3, s3), identity_crossed_module(s3).action):
        got = _outcome(build_crossed_module, identity_hom(s3), act)
        assert got == _outcome(ref_build_crossed_module, identity_hom(s3), act)
        outcomes.add(got[0] if isinstance(got, tuple) else "ok")
    assert outcomes == {"ok", PeifferViolation, PreCrossedViolation}
