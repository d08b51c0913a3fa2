"""Crossed extensions and the butterfly calculus."""

import dataclasses
import itertools

import numpy as np
import pytest

from bfly.actions import identity_morphism, trivial_module, zero_morphism
from bfly.bridges import class_of_crossed_extension
from bfly.butterflies import (
    build_butterfly,
    butterfly_beta,
    compose_butterflies,
    find_butterfly_iso,
    flip,
    identity_butterfly,
    inverse_witness,
    inverse_xext,
    is_flippable,
    is_pi1_shape,
    loop_to_extension,
    morphism_to_butterfly,
    phi,
    pushforward_xext,
    tensor_unit_comparison,
    tensor_xext,
    unit_xext,
)
from bfly.catalog import (
    identity_xext_family,
    nontrivial_class_xext,
    trivial_class_spliced_xext,
)
from bfly.cohomology import cohomology, cyclic_group
from bfly.errors import (
    ActionNotWellDefined,
    ButterflyConditionViolation,
    NotFlippable,
    NotPi1Shape,
)
from bfly.extensions import unit_extension
from bfly.bridges import extension_from_2cocycle
from bfly.cohomology import build_cochain

from conftest import coinduced_xext


def z4_ext(module):
    return extension_from_2cocycle(build_cochain(module, 2, [[0, 0], [0, 1]]))


def test_unit_xext_shape(z2_z2_triv):
    unit = unit_xext(z2_z2_triv)
    assert unit.b == z2_z2_triv.coeff
    assert unit.e2 == z2_z2_triv.coeff
    assert unit.c == z2_z2_triv.base
    assert class_of_crossed_extension(unit).is_zero()


def test_nontrivial_splice_has_nonzero_class(z2_z2_triv):
    e = nontrivial_class_xext()
    cls = class_of_crossed_extension(e)
    assert not cls.is_zero()
    assert cohomology(z2_z2_triv, 3).order == 2


def test_trivial_action_splice_has_zero_class():
    assert class_of_crossed_extension(trivial_class_spliced_xext()).is_zero()


def test_identity_crossed_module_family_is_trivial():
    for e in identity_xext_family():
        assert class_of_crossed_extension(e).is_zero()


def test_identity_butterfly_laws(z2_z2_triv):
    e = nontrivial_class_xext()
    ident = identity_butterfly(e)
    assert is_flippable(ident)
    assert butterfly_beta(ident) == identity_morphism(e.module)
    assert find_butterfly_iso(compose_butterflies(ident, ident), ident)


def test_tensor_adds_classes(z2_z2_triv):
    e = nontrivial_class_xext()
    g = cohomology(z2_z2_triv, 3)
    c1 = g.classify(class_of_crossed_extension(e).representative)
    t = tensor_xext(e, e)
    ct = g.classify(class_of_crossed_extension(t).representative)
    assert ct == c1 + c1
    assert ct.is_zero()


def test_inverse_law_through_oracle(z2_z2_triv):
    e = nontrivial_class_xext()
    g = cohomology(z2_z2_triv, 3)
    c = g.classify(class_of_crossed_extension(e).representative)
    ci = g.classify(class_of_crossed_extension(inverse_xext(e)).representative)
    assert (c + ci).is_zero()


def test_inverse_witness_is_flippable_isomorphism(z2_z2_triv):
    e = nontrivial_class_xext()
    w = inverse_witness(e)
    assert w.dom == tensor_xext(e, inverse_xext(e))
    assert is_flippable(w)
    assert butterfly_beta(w) == identity_morphism(z2_z2_triv)
    roundtrip = compose_butterflies(flip(w), w)
    assert find_butterfly_iso(roundtrip, identity_butterfly(w.dom))


def test_flip_requires_flippable(z2_z2_triv):
    e = nontrivial_class_xext()
    unit = unit_xext(z2_z2_triv)
    # the tensor-unit comparison morphism gives a non-flippable butterfly
    # whenever it is not an isomorphism of crossed extensions; build one
    # from the pushforward of e along zero, which collapses the kernel
    m = tensor_unit_comparison(e)
    b = morphism_to_butterfly(m)
    if not is_flippable(b):
        with pytest.raises(NotFlippable):
            flip(b)
    else:
        assert find_butterfly_iso(compose_butterflies(flip(b), b),
                                  identity_butterfly(b.dom))


def test_phi_on_unit_extension(z2_z2_triv):
    b = phi(unit_extension(z2_z2_triv))
    assert find_butterfly_iso(b, identity_butterfly(unit_xext(z2_z2_triv)))


def test_phi_is_pi1_shaped(z2_z2_triv):
    b = phi(z4_ext(z2_z2_triv))
    assert is_pi1_shape(b)
    assert is_flippable(b)
    ext = loop_to_extension(b)
    from bfly.extensions import are_fibre_isomorphic

    assert are_fibre_isomorphic(ext, z4_ext(z2_z2_triv))


def test_phi_distinguishes_classes(z2_z2_triv, z2):
    from bfly.extensions import build_extension
    from bfly.groups import build_group, build_hom

    k4 = build_group([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    k4e = build_extension(build_hom(z2, k4, [0, 1]), build_hom(k4, z2, [0, 0, 1, 1]))
    assert find_butterfly_iso(phi(z4_ext(z2_z2_triv)), phi(k4e)) is None


def test_identity_butterfly_not_pi1_shaped_off_unit(z2_z2_triv):
    e = nontrivial_class_xext()
    b = identity_butterfly(e)
    assert not is_pi1_shape(b)
    with pytest.raises(NotPi1Shape):
        loop_to_extension(b)


def test_pushforward_xext_along_zero(z2_z2_triv, z2_z3_inv):
    e = nontrivial_class_xext()
    pushed, m = pushforward_xext(e, zero_morphism(z2_z2_triv, z2_z3_inv))
    assert pushed.module == z2_z3_inv
    assert class_of_crossed_extension(pushed).is_zero()
    b = morphism_to_butterfly(m)
    assert butterfly_beta(b) == zero_morphism(z2_z2_triv, z2_z3_inv)


def test_butterfly_condition_violation_reports_condition(z2_z2_triv):
    e = nontrivial_class_xext()
    ident = identity_butterfly(e)
    from bfly.groups import zero_hom

    with pytest.raises(ButterflyConditionViolation):
        build_butterfly(e, e, ident.f_group, ident.kappa, ident.iota,
                        ident.delta, zero_hom(ident.f_group, e.e1))


def _xext_sweep():
    from bfly.catalog import h3_catalog, standard_modules

    mods = standard_modules()
    return [(name, m, h3_catalog(m, mods)) for name, m in mods]


def test_xext_search_matches_the_pair_loop():
    """xext_morphisms_over against the parent's nested loop, list for list."""
    from bfly.actions import all_module_morphisms
    from bfly.universal import xext_morphisms_over
    from reference_loops import ref_xext_morphisms_over

    from bfly.butterflies import product_xext_with_data

    found, differ = 0, 0
    for name, m, entries in _xext_sweep():
        prod = product_xext_with_data(entries[0][1], entries[1][1]).xext
        betas = all_module_morphisms(m, m)[:2]
        for (en, e), (gn, g) in itertools.product(entries, repeat=2):
            family = xext_morphisms_over(e, g, betas)
            assert len(family) == len(betas)
            for got, beta in zip(family, betas):
                want = ref_xext_morphisms_over(e, g, beta)
                assert [(f.f1.map.tolist(), f.f2.map.tolist()) for f in got] == [
                    (f.f1.map.tolist(), f.f2.map.tolist()) for f in want], (name, en, gn)
                assert got == want and all(f.beta is beta for f in got)
                found += len(got)
            differ += len(family) > 1 and family[0] != family[1]
        pbetas = all_module_morphisms(prod.module, prod.module)[:2]
        got = xext_morphisms_over(prod, prod, pbetas)
        assert got == [ref_xext_morphisms_over(prod, prod, beta) for beta in pbetas], name
        found += sum(map(len, got))
    assert found > 0 and differ > 0
    assert xext_morphisms_over(prod, prod, []) == []


def test_xext_cocartesian_check_counts_one_factorisation():
    """Per-beta2 verdicts of one family call against a candidate-by-candidate count."""
    from bfly.actions import all_module_morphisms, compose_morphisms, identity_morphism
    from bfly.butterflies import XExtMorphism, pushforward_xext, unit_xext
    from bfly.catalog import standard_modules
    from bfly.groups import compose, identity_hom, zero_hom
    from bfly.universal import check_cocartesian_xext
    from reference_loops import ref_xext_morphisms_over

    def candidate_count(lift, g, beta2):
        tests = ref_xext_morphisms_over(lift.dom, g, compose_morphisms(beta2, lift.beta))
        candidates = ref_xext_morphisms_over(lift.cod, g, beta2)
        return all(sum(compose(u.f2, lift.f2) == h.f2 and compose(u.f1, lift.f1) == h.f1
                       for u in candidates) == 1 for h in tests)

    verdicts, mixed = set(), 0
    for name, m in standard_modules()[:6]:
        unit = unit_xext(m)
        if unit.e2.order > 4:
            continue
        # a square over beta = 0 that claims beta = id
        fake = XExtMorphism(unit, unit, identity_morphism(m), zero_hom(m.coeff, m.coeff),
                            identity_hom(m.base))
        family = all_module_morphisms(m, m)
        for lift in [pushforward_xext(unit, beta)[1] for beta in family[:2]] + [fake]:
            for g in (lift.cod, unit):
                got = check_cocartesian_xext(lift, g, family)
                assert got == [candidate_count(lift, g, b2) for b2 in family], name
                verdicts.update(got)
                mixed += len(set(got)) == 2
    assert verdicts == {True, False} and mixed > 0


def test_induced_modules_match_the_lift_loops():
    """Every catalog extension and crossed extension against the dict loops."""
    from bfly.catalog import h2_catalog
    from reference_loops import ref_induced_module, ref_induced_module_via_j

    for name, m, entries in _xext_sweep():
        for ext in h2_catalog(m):
            assert ext.module == ref_induced_module(ext.kernel_arrow, ext.quotient_arrow)
        for en, e in entries + [("identity", x) for x in identity_xext_family()]:
            assert e.module == ref_induced_module_via_j(e.j, e.xm, e.p), (name, en)


def _outcome(fn, *args):
    """fn(*args), or the class and message of the library error it raised."""
    from bfly.errors import BflyError

    try:
        return fn(*args)
    except BflyError as exc:
        return type(exc), str(exc)


def _perturbed(e, swaps):
    """e with the images of x1 and x2 under g * (-) swapped for each (g, x1, x2)."""
    from dataclasses import replace

    from bfly.actions import GroupAction
    from bfly.crossed import CrossedModule

    act = e.xm.action.act.copy()
    for g, x1, x2 in swaps:
        act[g, [x1, x2]] = act[g, [x2, x1]]
    return replace(e, xm=CrossedModule(e.xm.boundary, GroupAction(e.e1, e.e2, act)))


def _broken_actions(e):
    """Swaps that break the wing laws, the pushforward's cosets, and both orders.

    (g, 1, last) breaks g's row; (g, 1, 1 + j(1)) mixes a coset of j(B); the
    pair of swaps breaks an early row at late elements and a late row at
    early ones, so the first failure in row-major order is not the first
    in column-major order.
    """
    n1, n2 = e.e1.order, e.e2.order
    out = []
    for g in range(1, n1):
        if n2 > 2:
            out.append([(g, 1, n2 - 1)])
        if e.b.order > 1 and e.e2.add(1, e.j(1)) not in (0, 1):
            out.append([(g, 1, e.e2.add(1, e.j(1)))])
    if n1 > 2 and n2 > 3:
        out.append([(1, n2 - 2, n2 - 1), (n1 - 1, 1, 2)])
    return [_perturbed(e, swaps) for swaps in out]


def _validated_xext(e):
    """e's arrows through build_action, build_crossed_module and
    build_crossed_extension, as the document loader takes them."""
    from bfly.actions import build_action
    from bfly.butterflies import build_crossed_extension
    from bfly.crossed import build_crossed_module

    xm = build_crossed_module(e.xm.boundary, build_action(e.e1, e.e2, e.xm.action.act))
    return build_crossed_extension(e.j, xm, e.p)


def test_butterfly_layer_matches_the_pointwise_loops():
    """Every h3-catalog object of the 22 modules against the parent's loops."""
    from bfly.actions import all_module_morphisms
    from bfly.butterflies import product_xext_with_data
    from bfly.catalog import h2_catalog
    from bfly.crossed import associated_groupoid
    from bfly.groups import cooperator
    from reference_loops import (
        ref_associated_groupoid,
        ref_build_butterfly,
        ref_butterfly_beta,
        ref_cooperator,
        ref_find_butterfly_iso,
        ref_inverse_witness,
        ref_product_xext,
        ref_pushforward_xext,
    )

    def same_iso(b1, b2):
        got, want = find_butterfly_iso(b1, b2), ref_find_butterfly_iso(b1, b2)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.sigma == want.sigma
        return got is not None

    failures, isos = set(), 0
    for name, m, entries in _xext_sweep():
        betas = all_module_morphisms(m, m)[:2]
        unit = entries[0][1]
        for en, e in entries:
            gpd, want_gpd = associated_groupoid(e.xm), ref_associated_groupoid(e.xm)
            assert (gpd.d, gpd.ker_d_section) == (want_gpd.d, want_gpd.ker_d_section)
            ident = identity_butterfly(e)
            wings = (ident.f_group, ident.kappa, ident.iota, ident.delta, ident.gamma)
            assert ref_build_butterfly(e, e, *wings) == ident, (name, en)
            assert butterfly_beta(ident) == ref_butterfly_beta(ident)
            assert cooperator(ident.kappa, ident.iota) == ref_cooperator(ident.kappa, ident.iota)
            for beta in betas:
                assert pushforward_xext(e, beta) == ref_pushforward_xext(e, beta), (name, en)
            prod = product_xext_with_data(e, unit)
            want, want_pb = ref_product_xext(e, unit)
            assert prod.xext == want and prod.pb.group == want_pb.group
            assert (prod.pb.p1, prod.pb.p2) == (want_pb.p1, want_pb.p2)
            assert inverse_witness(e) == ref_inverse_witness(e), (name, en)
            isos += same_iso(compose_butterflies(ident, ident), ident)
            for bad in _broken_actions(e):
                for dom, cod in ((bad, e), (e, bad)):
                    got = _outcome(build_butterfly, dom, cod, *wings)
                    assert got == _outcome(ref_build_butterfly, dom, cod, *wings), (name, en)
                    failures.add(got[0] if isinstance(got, tuple) else None)
                # the validators refuse bad, or build it over another module
                checked = _outcome(_validated_xext, bad)
                assert isinstance(checked, tuple) or checked.module != bad.module, (name, en)
                for beta in betas:
                    got = _outcome(pushforward_xext, bad, beta)
                    failures.add(got[0] if isinstance(got[0], type) else None)
        loops = [phi(ext) for ext in h2_catalog(m)]
        for b1, b2 in itertools.product(loops, repeat=2):
            isos += same_iso(b1, b2)
    assert isos > 0
    assert {ButterflyConditionViolation, ActionNotWellDefined} <= failures


def test_tensor_pushforward_builds_no_group_over_the_cap():
    """The codiagonal pushforward of E x E, |E2| = 16, never builds B' x E2 (1024)."""
    from bfly.actions import cmodule_product, pair_codiagonal
    from bfly.butterflies import product_xext_with_data
    from bfly.catalog import standard_modules
    from bfly.groups import order_cap
    from reference_loops import ref_pushforward_xext

    m = dict(standard_modules())["Z2-Z4-a0"]
    e = coinduced_xext(m, (1,))
    assert (e.b.order, e.e2.order, e.e1.order) == (4, 16, 8)
    assert class_of_crossed_extension(e).coords == (1,)
    prod = product_xext_with_data(e, e).xext
    codiag = pair_codiagonal(cmodule_product(m, m), m)
    got = pushforward_xext(prod, codiag)
    with order_cap(4096):
        want = ref_pushforward_xext(prod, codiag)
    assert got == want
    assert (got[0].e2.order, got[0].e1.order) == (64, 32)
    assert class_of_crossed_extension(got[0]).is_zero()


# --- shared results, the order cap, and the validators of verify ---------


def _arrays(obj, seen):
    """Every ndarray reachable from obj through dataclass fields, cached
    properties, tuples and lists."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item, seen)
    elif dataclasses.is_dataclass(obj):
        for value in vars(obj).values():
            yield from _arrays(value, seen)


def test_memoized_results_are_read_only():
    """The constructions share arrays with their arguments, and the h2 memo
    hands out its objects, so none of their arrays may change."""
    from bfly.actions import all_module_morphisms
    from bfly.butterflies import tensor_xext_with_data
    from bfly.catalog import h2_catalog, h3_catalog, standard_modules

    mods = standard_modules()
    results = []
    for _, m in mods:
        cat = [e for _, e in h3_catalog(m, mods)]
        results += [inverse_witness(e) for e in cat]
        results += [tensor_xext_with_data(e1, e2) for e1, e2 in itertools.product(cat[:3], repeat=2)]
        results += [pushforward_xext(unit_xext(m), b) for b in all_module_morphisms(m, m)[:2]]
        results += [h2_catalog(m)] + [phi(ext) for ext in h2_catalog(m)]
    arrays = list(_arrays(results, set()))
    assert len(arrays) > 1000
    assert not [a for a in arrays if a.flags.writeable]


def test_a_failing_pushforward_raises_on_every_call(z2_z2_triv, z2_z3_inv):
    from bfly.errors import ModuleMismatch

    e = unit_xext(z2_z2_triv)
    for _ in range(2):
        with pytest.raises(ModuleMismatch):
            pushforward_xext(e, identity_morphism(z2_z3_inv))


def test_h2_catalog_returns_a_fresh_list(z2_z2_triv):
    from bfly.catalog import h2_catalog

    cat = h2_catalog(z2_z2_triv)
    assert len(cat) == 2
    cat.append(cat[0])
    cat[0] = cat[1]
    again = h2_catalog(z2_z2_triv)
    assert len(again) == 2 and again[0] == unit_extension(z2_z2_triv)


def test_a_lower_order_cap_refuses_what_a_higher_one_built():
    """A value built under a higher cap is not returned under a lower one."""
    from bfly.catalog import h2_catalog, standard_modules
    from bfly.errors import OrderCapExceeded
    from bfly.groups import order_cap

    mods = dict(standard_modules())
    e = coinduced_xext(mods["Z2-Z4-a0"], (1,))
    tensored = tensor_xext(e, e)            # its middle has order 64
    with order_cap(32):
        with pytest.raises(OrderCapExceeded):
            tensor_xext(e, e)
    assert tensor_xext(e, e) == tensored
    m = mods["Z4-Z4-a0"]
    cat = h2_catalog(m)                     # every middle group has order 16
    with order_cap(8):
        with pytest.raises(OrderCapExceeded):
            h2_catalog(m)
    assert h2_catalog(m) == cat


def _broken_wing_iii(b):
    """b over a domain whose E1 acts with the images of 0 and 1 under 1 * (-)
    swapped: kappa is injective and delta onto, so wing law (iii) fails."""
    from dataclasses import replace

    from bfly.actions import GroupAction
    from bfly.crossed import CrossedModule

    act = b.dom.xm.action.act.copy()
    act[1, [0, 1]] = act[1, [1, 0]]
    xm = CrossedModule(b.dom.xm.boundary, GroupAction(b.dom.e1, b.dom.e2, act))
    return replace(b, dom=replace(b.dom, xm=xm))


def _broken_kappa(w):
    """w with kappa shifted by an element outside the kernel of delta."""
    from dataclasses import replace

    from bfly.groups import _hom

    f = int(np.flatnonzero(w.delta.map)[0])
    kappa = _hom(w.kappa.dom, w.f_group, w.f_group.table[w.kappa.map, f])
    return replace(w, kappa=kappa)


def test_verify_fails_a_broken_construction_by_its_validator(monkeypatch):
    """The constructions build by invariant, so a broken composite or inverse
    witness must fail the check that validates it, not pass it."""
    from bfly import verify

    real_compose, real_witness = verify.compose_butterflies, verify.inverse_witness
    monkeypatch.setattr(verify, "compose_butterflies",
                        lambda second, first: _broken_wing_iii(real_compose(second, first)))
    monkeypatch.setattr(verify, "inverse_witness", lambda e: _broken_kappa(real_witness(e)))
    composing = {"butterfly:compose:unit-laws", "butterfly:compose:associativity",
                 "butterfly:compose:beta-functorial", "butterfly:beta:iso-invariant"}
    laws = verify.run_suite("butterfly-laws")
    assert {r.name for r in laws if not r.passed} == composing
    assert all("ButterflyConditionViolation: butterfly condition iii" in r.detail
               for r in laws if not r.passed)
    inverse = verify.run_suite("inverse")
    assert len(inverse) == 22 and not any(r.passed for r in inverse)
    assert all(r.detail.startswith("ButterflyConditionViolation: butterfly condition i:")
               for r in inverse)


# --- quotients of fibre products built on codes -----------------------------


def test_tensor_answers_under_the_default_cap():
    """u (x) u for the unit of Z2 acting trivially on Z32: E2 x E2 has order
    1024, the tensor's middle 32, and no larger group is built."""
    u = unit_xext(trivial_module(cyclic_group(2), cyclic_group(32)))
    tensored = tensor_xext(u, u)
    assert tensored.e2.order == 32
    assert class_of_crossed_extension(tensored).is_zero()


def test_pushforward_reads_its_action_on_the_coset_labels_only():
    """The unit of trivial Z512 on Z512 pushed along the identity: the result
    has |E2| = 512, and the action is never gathered on all of E1 x B' x E2
    (a 1 GiB temporary), so the call answers under a 1.5 GB address space."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))\n"
        "from bfly.actions import identity_morphism, trivial_module\n"
        "from bfly.butterflies import pushforward_xext, unit_xext\n"
        "from bfly.cohomology import cyclic_group\n"
        "m = trivial_module(cyclic_group(512), cyclic_group(512))\n"
        "result, lift = pushforward_xext(unit_xext(m), identity_morphism(m))\n"
        "print(result.e2.order, result.module == m)\n"
    )
    src = str(Path(pushforward_xext.__code__.co_filename).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["512", "True"]


def test_composite_butterfly_answers_under_the_default_cap():
    """phi(e) . phi(e) for the class (1,) of Z4 acting trivially on Z16: the
    pullback of the legs has order 1024, the composite's core 64."""
    from bfly.extensions import baer_sum

    m = trivial_module(cyclic_group(4), cyclic_group(16))
    e = extension_from_2cocycle(cohomology(m, 2).representative((1,)))
    comp = compose_butterflies(phi(e), phi(e))
    assert comp.f_group.order == 64
    assert find_butterfly_iso(comp, phi(baer_sum(e, e))) is not None


def test_the_cap_refuses_a_quotient_before_building_its_table(monkeypatch):
    """Inputs within a cap whose quotient exceeds it raise OrderCapExceeded,
    and no table over the cap reaches the group constructor."""
    from bfly import groups
    from bfly.errors import OrderCapExceeded
    from bfly.extensions import baer_sum, pushforward_extension

    u = unit_xext(trivial_module(cyclic_group(2), cyclic_group(32)))
    m = trivial_module(cyclic_group(4), cyclic_group(16))
    e = extension_from_2cocycle(cohomology(m, 2).representative((1,)))
    loop = phi(e)
    real, orders = groups._group, []

    def recorded(table, name=""):
        orders.append(len(table))
        return real(table, name)

    monkeypatch.setattr(groups, "_group", recorded)
    # results of order 32, 64, 64 and 64; every input has order at most 64
    for cap, build in ((16, lambda: tensor_xext(u, u)),
                       (32, lambda: baer_sum(e, e)),
                       (32, lambda: compose_butterflies(loop, loop)),
                       (32, lambda: pushforward_extension(e, identity_morphism(m)))):
        orders.clear()
        with groups.order_cap(cap):
            with pytest.raises(OrderCapExceeded):
                build()
        assert max(orders, default=0) <= cap


def test_quotients_read_in_slices_of_the_normal_subgroup_are_unchanged(monkeypatch):
    """With one element of N per gather, the tensor, the Baer sum, the
    composite and the pushforward are the same values."""
    from bfly import groups
    from bfly.extensions import baer_sum, pushforward_extension

    u = unit_xext(trivial_module(cyclic_group(2), cyclic_group(8)))
    m = trivial_module(cyclic_group(4), cyclic_group(4))
    e = extension_from_2cocycle(cohomology(m, 2).representative((1,)))
    loop = phi(e)
    builds = (lambda: tensor_xext(u, u), lambda: baer_sum(e, e),
              lambda: compose_butterflies(loop, loop),
              lambda: pushforward_extension(e, identity_morphism(m)))
    whole = [build() for build in builds]
    monkeypatch.setattr(groups, "_GATHER", 1)
    assert [build() for build in builds] == whole


def test_fused_tensor_and_composites_match_the_two_step_definitions():
    """Over every pair of each module's h3 catalog, the fused tensor equals the
    product pushed forward along the codiagonal, with the same pullback and the
    same classes of (0, (x1, x2)); composites of inverse witnesses and of the
    loops of every pair of the h2 catalog equal the whole pullback followed
    by the quotient."""
    from bfly.butterflies import tensor_xext_with_data
    from bfly.catalog import h2_catalog
    from reference_loops import ref_compose_butterflies, ref_tensor_xext_with_data

    composites = 0
    for name, m, entries in _xext_sweep():
        cat = [e for _, e in entries]
        for e1, e2 in itertools.product(cat, repeat=2):
            got, pb, cls = tensor_xext_with_data(e1, e2)
            want, data, lift = ref_tensor_xext_with_data(e1, e2)
            assert got == want and got.module == want.module == m, name
            assert pb == data.pb and np.array_equal(pb.pos, data.pb.pos)
            assert cls.shape == (e1.e2.order, e2.e2.order)
            assert np.array_equal(cls.ravel(), lift.f2.map), name
        witnesses = [inverse_witness(e) for e in cat]
        pairs = [(flip(w2), w1) for w1, w2 in itertools.product(witnesses, repeat=2)]
        pairs += [(w, flip(w)) for w in witnesses]
        loops = [phi(ext) for ext in h2_catalog(m)]
        pairs += list(itertools.product(loops, repeat=2))
        for second, first in pairs:
            got = compose_butterflies(second, first)
            assert got == ref_compose_butterflies(second, first), name
            assert got.f_group == ref_compose_butterflies(second, first).f_group
            composites += 1
    assert composites > 200


def test_a_non_normal_identified_image_is_refused(s3):
    """The identified image is checked for normality on codes, as the
    two-step composite checks it on the pullback."""
    from bfly.butterflies import _butterfly
    from bfly.errors import TypeMismatch
    from bfly.groups import _hom, zero_hom
    from reference_loops import ref_compose_butterflies

    one, z2, z3 = cyclic_group(1), cyclic_group(2), cyclic_group(3)
    x = unit_xext(trivial_module(one, z2))
    for mid, image in ((z2, [0, 3]), (z3, [0, 1, 2])):     # a transposition; the rotations
        first = _butterfly(x, x, s3, zero_hom(mid, s3), _hom(mid, s3, image),
                           zero_hom(s3, one), zero_hom(s3, one))
        second = _butterfly(x, x, mid, zero_hom(mid, mid), zero_hom(mid, mid),
                            zero_hom(mid, one), zero_hom(mid, one))
        got = _outcome(compose_butterflies, second, first)
        assert got == _outcome(ref_compose_butterflies, second, first)
        assert (got == (TypeMismatch, "identified middle image is not normal")) == (mid is z2)
