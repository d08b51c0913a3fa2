"""Crossed extensions and the butterfly calculus."""

import dataclasses
import itertools

import numpy as np
import pytest

from bfly.actions import identity_morphism, zero_morphism
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

    found = 0
    for name, m, entries in _xext_sweep():
        prod = product_xext_with_data(entries[0][1], entries[1][1]).xext
        for beta in all_module_morphisms(m, m)[:2]:
            for (en, e), (gn, g) in itertools.product(entries, repeat=2):
                got = xext_morphisms_over(e, g, beta)
                want = ref_xext_morphisms_over(e, g, beta)
                assert [(f.f1.map.tolist(), f.f2.map.tolist()) for f in got] == [
                    (f.f1.map.tolist(), f.f2.map.tolist()) for f in want], (name, en, gn)
                assert got == want
                found += len(got)
        for beta in all_module_morphisms(prod.module, prod.module)[:2]:
            got = xext_morphisms_over(prod, prod, beta)
            assert got == ref_xext_morphisms_over(prod, prod, beta), name
            found += len(got)
    assert found > 0


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
                for beta in betas:
                    got = _outcome(pushforward_xext, bad, beta)
                    assert got == _outcome(ref_pushforward_xext, bad, beta), (name, en)
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


# --- memoized constructions -----------------------------------------------


def _memos():
    from bfly import butterflies, catalog

    return [butterflies.pushforward_xext, butterflies.tensor_xext_with_data,
            butterflies.phi, butterflies.inverse_witness, catalog._h2_catalog]


def _clear_memos():
    for memo in _memos():
        memo.cache_clear()


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
    """A hit shares the first caller's objects, so none of their arrays may change."""
    from bfly.actions import all_module_morphisms
    from bfly.butterflies import tensor_xext_with_data
    from bfly.catalog import h2_catalog, h3_catalog, standard_modules

    _clear_memos()
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


def test_equal_inputs_built_apart_hit_the_memos():
    from bfly.actions import trivial_module
    from bfly.butterflies import tensor_xext_with_data
    from bfly.catalog import _h2_catalog, h2_catalog

    def calls(m):
        e = unit_xext(m)
        return [pushforward_xext(e, identity_morphism(m)), tensor_xext_with_data(e, e),
                phi(unit_extension(m)), inverse_witness(e), h2_catalog(m)]

    _clear_memos()
    a = trivial_module(cyclic_group(2), cyclic_group(2))
    b = trivial_module(cyclic_group(2), cyclic_group(2))
    assert a is not b and a == b and unit_xext(a) is not unit_xext(b)
    first = calls(a)
    hits = [memo.cache_info().hits for memo in _memos()]
    again = calls(b)
    # each memo is read once more: a hit of tensor_xext_with_data or of
    # inverse_witness does not reach the memos that they call
    assert [memo.cache_info().hits for memo in _memos()] == [h + 1 for h in hits]
    assert all(x is y for x, y in zip(first[:4], again[:4]))
    assert again[4] == first[4] and all(x is y for x, y in zip(again[4], _h2_catalog(a)))


def test_memos_are_bounded():
    from bfly import groups

    assert all(memo.cache_info().maxsize is not None for memo in _memos())
    assert all(any(memo is c for c in groups._CAPPED_MEMOS) for memo in _memos())


def test_a_failing_pushforward_raises_on_every_call(z2_z2_triv, z2_z3_inv):
    from bfly.errors import ModuleMismatch

    _clear_memos()
    e = unit_xext(z2_z2_triv)
    for _ in range(2):
        with pytest.raises(ModuleMismatch):
            pushforward_xext(e, identity_morphism(z2_z3_inv))
    info = pushforward_xext.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


def test_h2_catalog_returns_a_fresh_list(z2_z2_triv):
    from bfly.catalog import h2_catalog

    _clear_memos()
    cat = h2_catalog(z2_z2_triv)
    assert len(cat) == 2
    cat.append(cat[0])
    cat[0] = cat[1]
    again = h2_catalog(z2_z2_triv)
    assert len(again) == 2 and again[0] == unit_extension(z2_z2_triv)


def test_inverse_suite_builds_each_product_once(monkeypatch):
    """The catalog's tensor-unit-unit and push-* entries equal the unit, and
    each crossed extension is tensored with its inverse once."""
    import collections

    from bfly import butterflies
    from bfly.verify import run_suite

    built = collections.Counter()
    real = butterflies.product_xext_with_data

    def spy(e, ep):
        built[e, ep] += 1
        return real(e, ep)

    _clear_memos()
    monkeypatch.setattr(butterflies, "product_xext_with_data", spy)
    assert all(r.passed for r in run_suite("inverse"))
    assert built and max(built.values()) == 1


def test_lowering_the_order_cap_empties_the_memos():
    """A value built under a higher cap is not returned under a lower one."""
    from bfly.catalog import standard_modules
    from bfly.errors import OrderCapExceeded
    from bfly.groups import order_cap

    _clear_memos()
    e = coinduced_xext(dict(standard_modules())["Z2-Z4-a0"], (1,))
    tensored = tensor_xext(e, e)            # E2 x E2 has order 256
    with order_cap(1024):
        assert tensor_xext(e, e) is tensored
    with order_cap(128):
        with pytest.raises(OrderCapExceeded):
            tensor_xext(e, e)
    assert tensor_xext(e, e) == tensored
