"""Group core: tables, homs, kernels, quotients, products, iso search."""

import itertools

import numpy as np
import pytest

from bfly.cohomology import cyclic_group
from bfly.errors import (
    ImagesDoNotCommute,
    LawViolation,
    MalformedTable,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotHomomorphism,
    OrderCapExceeded,
)
from bfly.groups import (
    _group,
    all_homs,
    build_group,
    build_hom,
    close_under_group,
    cokernel,
    compose,
    cooperator,
    direct_product,
    find_isomorphisms,
    identity_hom,
    is_short_exact,
    kernel,
    normal_closure,
    order_cap,
    pullback,
    quotient_by,
    semidirect_product,
    subgroup_from_elements,
    zero_hom,
)
from bfly.actions import build_action

from conftest import relabelled, s3_table


def test_cyclic_table_is_a_group(z4):
    assert z4.order == 4
    assert z4.add(3, 2) == 1
    assert z4.inv[3] == 1
    assert z4.add(0, 3) == 3


def test_s3_from_permutation_composition(s3):
    # validated against the independent permutation oracle in conftest
    assert s3.order == 6
    assert not np.array_equal(s3.table, s3.table.T)  # nonabelian


def test_bad_tables_rejected():
    with pytest.raises(NotAssociative):
        build_group([[0, 2, 1], [1, 0, 2], [2, 1, 0]])  # subtraction mod 3
    with pytest.raises(NoIdentity):
        build_group([[0, 0], [0, 0]])
    with pytest.raises(NoInverse):
        build_group([[0, 1], [1, 1]])  # boolean OR


def test_identity_relabeled_to_zero():
    g = build_group([[1, 0], [0, 1]])  # Z2 written with identity at index 1
    assert g.add(0, 1) == 1
    assert g.add(1, 1) == 0


def test_element_order_fails_where_index_zero_is_not_the_identity():
    """A table built by invariant skips validation; if index 0 is not its
    identity, the order walk from 1 never meets 0 and must stop at |G|."""
    g = _group([[1, 0], [0, 1]])  # Z2 with identity at index 1
    with pytest.raises(LawViolation, match="no order"):
        g.element_order(1)
    assert build_group([[1, 0], [0, 1]]).element_order(1) == 2


def test_order_cap_enforced():
    with order_cap(3):
        with pytest.raises(OrderCapExceeded):
            build_group(np.array([[(i + j) % 4 for j in range(4)] for i in range(4)]))


def test_hom_validation(z2, z4):
    f = build_hom(z4, z2, [0, 1, 0, 1])
    assert f(3) == 1
    with pytest.raises(NotHomomorphism):
        build_hom(z2, z4, [0, 1])  # 1+1 maps to 2, not 0


def test_kernel_of_mod2(z2, z4):
    f = build_hom(z4, z2, [0, 1, 0, 1])
    assert sorted(kernel(f).elements) == [0, 2]
    assert sorted(kernel(zero_hom(z4, z2)).elements) == [0, 1, 2, 3]


def test_cokernel_of_even_inclusion(z2, z4):
    inc = build_hom(z2, z4, [0, 2])
    q, proj = cokernel(inc)
    assert q.order == 2
    assert proj(2) == proj(0)


def test_cokernel_of_a3_in_s3(s3, z3):
    inc = build_hom(z3, s3, [0, 1, 2])
    q, _ = cokernel(inc)
    assert q.order == 2


def test_pullback_of_mod2_maps(z2, z4):
    f = build_hom(z4, z2, [0, 1, 0, 1])
    pb = pullback(f, f)
    assert pb.group.order == 8
    assert compose(f, pb.p1) == compose(f, pb.p2)


def test_quotient_by_normal_subgroup(z4):
    q, proj = quotient_by(z4, (0, 2))
    assert q.order == 2
    assert proj(1) == proj(3)


def test_semidirect_inversion_action_gives_s3(s3, z2, z3):
    act = build_action(z2, z3, [[0, 1, 2], [0, 2, 1]])
    sd = semidirect_product(act)
    assert sd.group.order == 6
    assert find_isomorphisms(sd.group, s3, limit=1)


def test_cooperator_requires_commuting_images(s3, z2):
    # two distinct order-2 subgroups of S3 do not commute
    f = build_hom(z2, s3, [0, 3])
    g = build_hom(z2, s3, [0, 4])
    with pytest.raises(ImagesDoNotCommute):
        cooperator(f, g)


def test_cooperator_on_direct_product(z2, z3):
    pr = direct_product(z2, z3)
    co = cooperator(pr.inj1, pr.inj2)
    assert co(co.dom.order - 1) == pr.group.order - 1


def test_short_exactness(z2, z4):
    inc = build_hom(z2, z4, [0, 2])
    proj = build_hom(z4, z2, [0, 1, 0, 1])
    assert is_short_exact(inc, proj)
    assert not is_short_exact(inc, zero_hom(z4, z2))


def test_automorphism_counts(z4, s3):
    assert len(find_isomorphisms(z4, z4)) == 2
    assert find_isomorphisms(z4, build_group([[0, 1, 2, 3], [1, 0, 3, 2],
                                              [2, 3, 0, 1], [3, 2, 1, 0]])) == []
    assert len(find_isomorphisms(s3, s3)) == 6


def test_all_homs_counts(z2, z3, z4):
    assert len(all_homs(z2, z2)) == 2
    assert len(all_homs(z2, z3)) == 1  # only the zero map
    assert len(all_homs(z4, z2)) == 2


def test_subgroup_embedding(z4):
    sub = subgroup_from_elements(z4, (0, 2))
    assert sub.group.order == 2
    assert sub.embedding(1) == 2


def _brute_assoc(table):
    """Reference O(n^3) scan: first (a, b, c) in index order, or None."""
    n = table.shape[0]
    bad = table[table] != table[:, table]     # (a+b)+c vs a+(b+c)
    return tuple(int(v) for v in np.argwhere(bad)[0]) if bad.any() else None


def _relabel(table, perm):
    """The same operation on the labels perm[a]."""
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def _assert_light_agrees(table):
    from bfly import _kernels

    brute = _brute_assoc(table)
    light = _kernels.assoc_violation(table)
    assert (light is None) == (brute is None), (table.tolist(), light, brute)
    if light is not None:
        a, b, c = light
        assert table[table[a, b], c] != table[a, table[b, c]]
    return light is None


def test_light_test_agrees_with_brute_scan(s3):
    from bfly.catalog import klein_group

    rng = np.random.default_rng(7)
    groups = [cyclic_group(n) for n in (1, 2, 5, 8, 12)] + [s3, klein_group()]
    groups += [direct_product(s3, cyclic_group(4)).group,
               direct_product(klein_group(), klein_group()).group]
    perturbed_bad = 0
    for g in groups:
        for _ in range(4):
            table = _relabel(g.table, rng.permutation(g.order))
            assert _assert_light_agrees(table)
            if g.order < 3:
                continue
            row, (j, k) = rng.integers(g.order), rng.choice(g.order, 2, replace=False)
            table[row, [j, k]] = table[row, [k, j]]
            perturbed_bad += not _assert_light_agrees(table)
    assert perturbed_bad >= 20

    # magmas that need many generators: bands, semilattices, constant
    # products, and one-entry perturbations of each
    n = 9
    x, y = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    for table in (x, y, np.minimum(x, y), np.maximum(x, y), np.zeros_like(x) + 3):
        table = table.astype(np.int64)
        assert _assert_light_agrees(table)
        for _ in range(20):
            bent = table.copy()
            bent[rng.integers(n), rng.integers(n)] = rng.integers(n)
            _assert_light_agrees(bent)

    # every magma of order 2 and order 3
    for order in (2, 3):
        cells = order * order
        for code in range(order ** cells):
            digits = [(code // order ** i) % order for i in range(cells)]
            _assert_light_agrees(np.asarray(digits, dtype=np.int64).reshape(order, order))


def test_magma_generators_match_the_loop(s3):
    """The greedy generating set of Light's test against the parent's loop."""
    from bfly import _kernels
    from reference_loops import ref_magma_generators

    rng = np.random.default_rng(3)
    tables = [g.table for g in (s3, relabelled(direct_product(s3, s3).group, 2))]
    tables += [rng.integers(0, n, size=(n, n)) for n in (2, 3, 4, 5, 6) for _ in range(60)]
    for table in tables:
        assert _kernels._magma_generators(table) == ref_magma_generators(table), table.tolist()


def test_hom_scan_matches_pointwise_check():
    from bfly import _kernels

    z5 = cyclic_group(5).table
    for m in ([0, 2, 4, 1, 3], [0, 2, 4, 3, 1], [0, 1, 2, 3, 4], [0, 0, 0, 0, 1]):
        m = np.asarray(m, dtype=np.int64)
        first = next(((a, b) for a in range(5) for b in range(5)
                      if m[z5[a, b]] != z5[m[a], m[b]]), None)
        assert _kernels.hom_violation(z5, z5, m) == first


def test_derived_constructions_pass_full_validation(s3):
    """Groups and maps built by invariant must pass the public validators."""
    from bfly.butterflies import build_crossed_extension, unit_xext
    from bfly.catalog import all_actions, h2_catalog, standard_groups, standard_modules
    from bfly.cohomology import z1
    from bfly.crossed import build_crossed_module
    from bfly.extensions import pi1_group

    def same_group(g):
        checked = build_group(g.table)
        assert checked == g and np.array_equal(checked.inv, g.inv)
        assert not g.table.flags.writeable and not g.inv.flags.writeable

    def same_hom(f):
        assert build_hom(f.dom, f.cod, f.map) == f

    groups = list(standard_groups().values()) + [s3]
    for n in range(1, 13):
        same_group(cyclic_group(n))
    for g in groups:
        same_hom(identity_hom(g))
        for h in groups:
            prod = direct_product(g, h)
            same_group(prod.group)
            for f in (prod.inj1, prod.inj2, prod.proj1, prod.proj2):
                same_hom(f)
            same_hom(zero_hom(g, h))
            homs = all_homs(g, h)
            for f in homs:
                sub = kernel(f)
                same_group(sub.group)
                same_hom(sub.embedding)
                q, proj = quotient_by(g, sub.elements)
                same_group(q)
                same_hom(proj)
                for f2 in homs[:3]:
                    pb = pullback(f, f2)
                    same_group(pb.group)
                    same_hom(pb.p1)
                    same_hom(pb.p2)
            for act in all_actions(g, h) if h.is_abelian() else ():
                sd = semidirect_product(act)
                same_group(sd.group)
                for f in (sd.inj_normal, sd.inj_actor, sd.retraction):
                    same_hom(f)
    for _, m in standard_modules()[::4]:
        same_group(z1(m).group)
        same_group(pi1_group(m)[0])
    for _, m in standard_modules():
        for ext in h2_catalog(m):     # the bridged twisted products B x_f C
            same_group(ext.middle)
            same_hom(ext.kernel_arrow)
            same_hom(ext.quotient_arrow)
        unit = unit_xext(m)           # the monoidal unit, built by invariant
        checked = build_crossed_extension(
            identity_hom(m.coeff),
            build_crossed_module(zero_hom(m.coeff, m.base), m.action),
            identity_hom(m.base),
        )
        assert unit == checked and unit.module == checked.module == m

    # the maps of the diagram layer that are homomorphisms by construction
    from bfly.actions import all_module_morphisms
    from bfly.butterflies import (
        compose_butterflies, find_butterfly_iso, identity_butterfly, inverse_witness,
        inverse_xext, morphism_to_butterfly, phi, product_xext_with_data,
        tensor_unit_comparison,
    )
    from bfly.catalog import h3_catalog
    from bfly.crossed import associated_groupoid
    from bfly.extensions import baer_sum, pushforward_extension
    from bfly.universal import composition_square, extension_product, product_of_lifts

    def same_butterfly(b):
        same_group(b.f_group)
        for f in (b.kappa, b.iota, b.delta, b.gamma):
            same_hom(f)

    mods = standard_modules()
    for _, m in mods[::3]:
        entries = [e for _, e in h3_catalog(m, mods)]
        for e in entries:
            gpd = associated_groupoid(e.xm)
            same_hom(gpd.d)
            same_hom(gpd.ker_d_section)
            ident = identity_butterfly(e)
            same_hom(cooperator(ident.kappa, ident.iota))
            comp = compose_butterflies(ident, ident)    # wings and legs by _hom
            same_butterfly(comp)
            same_hom(find_butterfly_iso(comp, ident).sigma)
            same_hom(inverse_xext(e).j)
            same_hom(inverse_witness(e).delta)
            prod = product_xext_with_data(e, entries[0]).xext
            same_hom(prod.j)
            same_hom(prod.xm.boundary)
            cmp = tensor_unit_comparison(e)
            same_hom(cmp.f1)
            same_butterfly(morphism_to_butterfly(cmp))
        exts = h2_catalog(m)
        for e1 in exts[:2]:
            same_hom(phi(e1).kappa)
            for e2 in exts[:2]:
                total = baer_sum(e1, e2)
                same_hom(total.kernel_arrow)
                same_hom(total.quotient_arrow)
                same_hom(extension_product(e1, e2).kernel_arrow)
                square = composition_square(e1, e2)
                same_hom(square.source.kernel_arrow)
                same_hom(square.target.kernel_arrow)
            for beta in all_module_morphisms(m, m)[:2]:
                lift = pushforward_extension(e1, beta)
                same_group(lift.target.middle)
                same_hom(lift.target.quotient_arrow)
                same_hom(product_of_lifts(lift, lift).mid)


def test_constructions_match_their_definitions(s3):
    """Vectorised constructions against their pointwise definitions."""
    from bfly.catalog import all_actions, klein_group

    z4, z2 = cyclic_group(4), cyclic_group(2)
    for act in all_actions(s3, cyclic_group(3)) + all_actions(z2, klein_group()):
        sd, nn, ng = semidirect_product(act), act.object.order, act.actor.order
        for (n1, g1), (n2, g2) in itertools.product(
                itertools.product(range(nn), range(ng)), repeat=2):
            want = act.object.add(n1, int(act.act[g1, n2])) * ng + act.actor.add(g1, g2)
            assert sd.group.add(n1 * ng + g1, n2 * ng + g2) == want

    for f, g in ((all_homs(s3, z2)[1], all_homs(z4, z2)[1]),
                 (all_homs(z4, s3)[0], all_homs(z2, s3)[1])):
        pairs = [(a, b) for a in f.dom.elements() for b in g.dom.elements() if f(a) == g(b)]
        pb = pullback(f, g)
        assert list(zip(pb.p1.map.tolist(), pb.p2.map.tolist())) == pairs
        for i, (a, b) in enumerate(pairs):
            for j, (c, d) in enumerate(pairs):
                assert pairs[pb.group.add(i, j)] == (f.dom.add(a, c), g.dom.add(b, d))

    for grp, normal in ((s3, (0, 1, 2)), (z4, (0, 2)), (s3, tuple(range(6)))):
        q, proj = quotient_by(grp, normal)
        least = sorted({min(grp.add(a, x) for x in normal) for a in grp.elements()})
        assert [proj(a) for a in least] == list(range(q.order))
        for a, b in itertools.product(grp.elements(), repeat=2):
            assert (proj(a) == proj(b)) == (grp.sub(a, b) in normal)
            assert q.add(proj(a), proj(b)) == proj(grp.add(a, b))
    with pytest.raises(LawViolation, match="normal subgroup"):
        quotient_by(z4, (0, 1))     # conjugation-closed, but not a subgroup

    from bfly.bridges import extension_from_2cocycle
    from bfly.catalog import standard_modules
    from bfly.cohomology import cohomology

    for _, m in standard_modules()[::3]:
        h2 = cohomology(m, 2)
        f = h2.representative((1,) * len(h2.factors))
        ext, nb, nc = extension_from_2cocycle(f), m.coeff.order, m.base.order
        for (b1, c1), (b2, c2) in itertools.product(
                itertools.product(range(nb), range(nc)), repeat=2):
            want = m.coeff.add(m.coeff.add(b1, m.xi(c1, b2)), f.value(c1, c2))
            assert ext.middle.add(b1 * nc + c1, b2 * nc + c2) == want * nc + m.base.add(c1, c2)
        assert ext.kernel_arrow.map.tolist() == [b * nc for b in range(nb)]
        assert ext.quotient_arrow.map.tolist() == [c for _ in range(nb) for c in range(nc)]

    sub = subgroup_from_elements(s3, (0, 2, 1))
    for i, j in itertools.product(range(3), repeat=2):
        assert sub.elements[sub.group.add(i, j)] == s3.add(sub.elements[i], sub.elements[j])
    with pytest.raises(MalformedTable, match=r"subset not closed: 3\+4 = 1"):
        subgroup_from_elements(s3, (0, 3, 4))


def test_identity_and_composition(z4, z2):
    f = build_hom(z4, z2, [0, 1, 0, 1])
    assert compose(f, identity_hom(z4)) == f
    assert compose(identity_hom(z2), f) == f


def _search_groups(s3):
    from bfly.catalog import klein_group, trivial_group

    z2, z4 = cyclic_group(2), cyclic_group(4)
    groups = {
        "Z1": trivial_group(), "Z2": z2, "Z3": cyclic_group(3), "Z4": z4,
        "Z6": cyclic_group(6), "Z8": cyclic_group(8), "K4": klein_group(), "S3": s3,
        "Z2xZ4": direct_product(z2, z4).group,
        "Z2^3": direct_product(direct_product(z2, z2).group, z2).group,
        "Z4xZ4": direct_product(z4, z4).group,
    }
    for seed, name in enumerate(("S3", "Z8", "Z2xZ4", "Z2^3", "Z4xZ4")):
        groups[f"{name}'"] = relabelled(groups[name], seed)
    return groups


def test_hom_searches_match_the_generator_loop(s3):
    """all_homs and find_isomorphisms list for list against the parent loop."""
    from reference_loops import ref_all_homs, ref_find_isomorphisms

    groups = _search_groups(s3)
    for (gn, g), (hn, h) in itertools.product(groups.items(), repeat=2):
        got = [f.map.tolist() for f in all_homs(g, h)]
        assert got == [f.map.tolist() for f in ref_all_homs(g, h)], (gn, hn)
        assert [f.map.tolist() for f in all_homs(g, h, limit=2)] == got[:2]
        if g.order == h.order:
            isos = [f.map.tolist() for f in find_isomorphisms(g, h)]
            assert isos == [f.map.tolist() for f in ref_find_isomorphisms(g, h)], (gn, hn)
            assert [f.map.tolist() for f in find_isomorphisms(g, h, limit=1)] == isos[:1]


def test_closures_match_the_fixed_point_loops(s3):
    """close_under_group and normal_closure against the parent's loops."""
    from reference_loops import ref_close_under_group, ref_normal_closure

    groups = _search_groups(s3)
    s3xs3 = direct_product(s3, s3).group
    groups.update({"S3xS3": s3xs3, "S3xS3'": relabelled(s3xs3, 5),
                   "Z8xZ8": direct_product(cyclic_group(8), cyclic_group(8)).group})
    rng = np.random.default_rng(0)
    for name, g in groups.items():
        seeds = [(), (0,), tuple(range(g.order))]
        seeds += [tuple(rng.integers(0, g.order, size=k).tolist()) for k in (1, 1, 2, 2, 3)]
        for seed in seeds:
            assert close_under_group(g, seed) == ref_close_under_group(g, seed), (name, seed)
            assert normal_closure(g, seed) == ref_normal_closure(g, seed), (name, seed)


def test_quotients_and_cooperators_match_the_loops(s3):
    """quotient_by and cooperator against the parent's loops."""
    from bfly.errors import BflyError
    from reference_loops import ref_cooperator, ref_quotient_by

    def outcome(fn, *args):
        try:
            return fn(*args)
        except BflyError as exc:
            return type(exc), str(exc)

    groups = _search_groups(s3)
    raised = set()
    for (gn, g), (hn, h) in itertools.product(groups.items(), repeat=2):
        if g.order * h.order > 64:
            continue
        homs = all_homs(g, h)
        for f in homs:
            q, proj = quotient_by(g, f.kernel_elements())
            want_q, want_proj = ref_quotient_by(g, f.kernel_elements())
            assert q == want_q and proj == want_proj, (gn, hn)
    for hn in ("S3", "S3'", "Z2xZ4", "K4"):
        into = [f for g in groups.values() if g.order <= 8 for f in all_homs(g, groups[hn])[:2]]
        for kappa, iota in itertools.product(into, repeat=2):
            got = outcome(cooperator, kappa, iota)
            assert got == outcome(ref_cooperator, kappa, iota), hn
            raised.add(got[0] if isinstance(got, tuple) else None)
    assert {None, ImagesDoNotCommute} <= raised


# --- memoized searches ----------------------------------------------------


def test_all_homs_builds_around_the_callers_groups(s3):
    """An equal but distinct pair hits the memo and still gets its own dom, cod and names."""
    from bfly.groups import _hom_rows

    first = all_homs(build_group(s3.table, name="A"), build_group(s3.table, name="B"))
    g, h = build_group(s3.table, name="G"), build_group(s3.table, name="H")
    hits = _hom_rows.cache_info().hits
    homs = all_homs(g, h)
    assert _hom_rows.cache_info().hits == hits + 1
    assert [f.map.tolist() for f in homs] == [f.map.tolist() for f in first]
    assert all(f.dom is g and f.cod is h for f in homs)
    assert {f.dom.name for f in homs} == {"G"} and {f.cod.name for f in homs} == {"H"}
    rows = _hom_rows(g, h)
    assert not rows.flags.writeable and not homs[0].map.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 1


def test_hom_memo_is_bounded():
    from bfly.groups import _hom_rows

    assert _hom_rows.cache_info().maxsize is not None


def test_hom_search_refuses_aut_of_a_relabelled_z2_to_the_fifth():
    """Aut(Z2^5) through Hom(B, B) would be 32^5 rows of 32 values, 8 GiB;
    the walk refuses before it repeats its rows past the search cap."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    from bfly import groups

    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2048 << 20, 2048 << 20))\n"
        "from bfly.catalog import all_actions\n"
        "from bfly.cohomology import cyclic_group\n"
        "from bfly.errors import SizeCap\n"
        "from conftest import relabelled\n"
        "from reference_loops import ref_mixed_radix_group\n"
        "b = relabelled(ref_mixed_radix_group((2,) * 5), 0)\n"
        "try:\n"
        "    all_actions(cyclic_group(2), b)\n"
        "except SizeCap as err:\n"
        "    print('SizeCap', len(str(err).splitlines()))\n"
    )
    src = Path(groups.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{tests}",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["SizeCap", "1"]


def test_each_pair_is_walked_once_per_process(monkeypatch):
    """During h2-pi1 the walk and its homs_violation check run once per pair of tables.

    Its searches are the catalog's Aut(B) and Hom(C, Aut B), so both memos
    start empty.
    """
    import collections

    from bfly import _kernels, catalog, groups
    from bfly.verify import run_suite

    walks = collections.Counter()

    class Spy:
        def __getattr__(self, name):
            return getattr(_kernels, name)

        def homs_violation(self, g_table, h_table, rows):
            walks[g_table.tobytes(), h_table.tobytes()] += 1
            return _kernels.homs_violation(g_table, h_table, rows)

    catalog._standard_modules.cache_clear()
    groups._hom_rows.cache_clear()
    monkeypatch.setattr(groups, "_kernels", Spy())
    assert all(r.passed for r in run_suite("h2-pi1"))
    assert walks and max(walks.values()) == 1


def test_standard_modules_returns_a_fresh_list():
    from bfly.catalog import standard_modules

    mods = standard_modules()
    assert len(mods) == 22
    mods.append(("extra", mods[0][1]))
    mods[0] = ("renamed", mods[0][1])
    again = standard_modules()
    assert len(again) == 22 and again[0][0] == "Z2-Z2-a0"


def test_pushforward_equivariance_stacked_matches_one_at_a_time(monkeypatch):
    """The stacked check gives the one-at-a-time detail, and the same first failure."""
    from reference_loops import ref_pushforward_equivariant

    from bfly import verify
    from bfly.butterflies import pushforward_xext
    from bfly.catalog import h3_catalog, nontrivial_class_xext, standard_modules

    mods = standard_modules()
    cats = {name: h3_catalog(m, mods) for name, m in mods}
    for name, m in mods:
        got = verify._pushforward_equivariant(m, cats[name], mods)
        assert got == ref_pushforward_equivariant(m, cats[name], mods), name
    # the catalog's first three classes are zero; lead with the nonzero one
    # and push it along Z2 -> Z4, x -> 2x, which keeps it nonzero
    named = dict(cats["Z2-Z2-a0"])
    cat = [(k, named[k]) for k in ("spliced-nontrivial", "unit", "spliced-trivial")]
    into = [("Z2-Z4-a0", dict(mods)["Z2-Z4-a0"])]
    m = dict(mods)["Z2-Z2-a0"]
    assert verify._pushforward_equivariant(m, cat, into) == "6 pushforwards"
    assert ref_pushforward_equivariant(m, cat, into) == "6 pushforwards"

    # a wrong pushforward for the second extension along a nonzero morphism
    def broken(e, beta):
        if e is cats["Z2-Z4-a0"][1][1] and not beta.hom.is_zero():
            return nontrivial_class_xext(), None
        return pushforward_xext(e, beta)

    monkeypatch.setattr(verify, "pushforward_xext", broken)
    monkeypatch.setattr("bfly.butterflies.pushforward_xext", broken)
    m = dict(mods)["Z2-Z4-a0"]
    failures = []
    for fn in (verify._pushforward_equivariant, ref_pushforward_equivariant):
        with pytest.raises(LawViolation) as exc:
            fn(m, cats["Z2-Z4-a0"], mods)
        failures.append(str(exc.value))
    assert failures == ["tensor-unit-unit along Z2-Z2-a0"] * 2
