"""Bar-resolution cohomology oracle and the cocycle/extension bridges."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfly.actions import trivial_module
from bfly.bridges import (
    _crossed_cocycle_rows,
    class_of_crossed_extension,
    class_of_extension,
    classes_of_crossed_extensions,
    cocycle_of_crossed_extension,
    cocycle_of_extension,
    extension_from_2cocycle,
    map_cochain,
    push_class,
)
from bfly.actions import build_action, cmodule_morphism
from bfly.butterflies import build_crossed_extension, unit_xext
from bfly.catalog import h2_catalog, h3_catalog, standard_modules, trivial_group
from bfly.cohomology import (
    BRUTE_FORCE_CAP,
    Cochain,
    Z1Result,
    _coboundary_matrix,
    _cocycles,
    _decompose_cached,
    _nonzero_tuples,
    add_cochains,
    build_cochain,
    coboundary,
    cohomology,
    cohomology_brute,
    cyclic_decomposition,
    cyclic_group,
    is_cocycle,
    neg_cochain,
    zero_cochain,
    z1,
)
from bfly.crossed import build_crossed_module
from bfly.errors import BflyError, LawViolation, ModuleMismatch, NotACocycle, require
from bfly.extensions import are_fibre_isomorphic, unit_extension
from bfly.groups import (
    _group,
    _hom,
    build_hom,
    direct_product,
    find_isomorphisms,
    zero_hom,
)

from conftest import coinduced_xext, relabelled
from reference_loops import ref_cochain, ref_cocycles, ref_mixed_radix_group, ref_vector


def test_h2_h3_ground_truth(z2_z2_triv, z3_z3_triv, z2_z3_inv):
    assert cohomology(z2_z2_triv, 2).order == 2
    assert cohomology(z2_z2_triv, 3).order == 2
    assert cohomology(z3_z3_triv, 2).order == 3
    assert cohomology(z2_z3_inv, 2).order == 1
    assert cohomology(z2_z3_inv, 3).order == 1


def test_z1_ground_truth(z2_z2_triv, z2_z3_inv):
    assert z1(z2_z2_triv).group.order == 2
    assert z1(z2_z3_inv).group.order == 3


def test_solver_matches_brute_force(z2_z2_triv, z3_z3_triv, z2_z3_inv, z4):
    mods = [z2_z2_triv, z3_z3_triv, z2_z3_inv, trivial_module(z4, cyclic_group(2))]
    for m in mods:
        for degree in (1, 2):
            assert cohomology(m, degree).order == cohomology_brute(m, degree)
    assert cohomology(z2_z2_triv, 3).order == cohomology_brute(z2_z2_triv, 3)


# every abelian group of order <= 24, as a product of its primary factors
_ABELIAN_TYPES = [
    (), (2,), (3,), (4,), (2, 2), (5,), (2, 3), (7,), (8,), (2, 4), (2, 2, 2),
    (9,), (3, 3), (2, 5), (11,), (4, 3), (2, 2, 3), (13,), (2, 7), (3, 5),
    (16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2), (17,), (2, 9), (2, 3, 3),
    (19,), (4, 5), (2, 2, 5), (3, 7), (2, 11), (23,), (8, 3), (2, 4, 3),
    (2, 2, 2, 3),
]


def test_decomposition_matches_the_divisor_chain_search(s3):
    """The greedy splitting picks the isomorphism the chain search found."""
    from reference_loops import ref_decompose

    for primary in _ABELIAN_TYPES:
        g = ref_mixed_radix_group(primary)
        for b in [g] + [relabelled(g, seed) for seed in range(3)]:
            got = _decompose_cached(b.table.tobytes(), b.order)
            want = ref_decompose(b.table.tobytes(), b.order)
            assert got.factors == want.factors, primary
            assert got.to_vec.dtype == want.to_vec.dtype, primary
            assert np.array_equal(got.to_vec, want.to_vec), primary
            assert got.from_vec.shape == want.factors, primary
            assert {c: int(got.from_vec[c]) for c in want.from_vec} == want.from_vec, primary
    for decompose in (_decompose_cached, ref_decompose):
        with pytest.raises(LawViolation) as err:
            decompose(s3.table.tobytes(), s3.order)
        assert str(err.value) == "no cyclic decomposition found (group not abelian?)"


def test_decomposition_needs_no_hom_search(monkeypatch, tmp_path, capsys, empty_class_memo):
    """Relabelled Z2^5 and Z2xZ4xZ4 split without listing Hom(model, B).

    On Z2^5 that list has 32^5 rows of 32 values, about 8 GiB.
    """
    import json
    import time

    from bfly import cohomology as coh_module, groups
    from bfly.cli import main
    from bfly.serialize import save_document

    def refuse(*args, **kwargs):
        raise AssertionError("a homomorphism search was called")

    for module in (groups, coh_module):
        for name in ("find_isomorphisms", "all_homs"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    z2_5 = relabelled(ref_mixed_radix_group((2,) * 5), 11)
    z2z4z4 = relabelled(ref_mixed_radix_group((2, 4, 4)), 12)
    for b, factors in ((z2_5, (2,) * 5), (z2z4z4, (2, 4, 4))):
        start = time.perf_counter()
        assert cyclic_decomposition(b).factors == factors
        assert time.perf_counter() - start < 0.1
    doc = tmp_path / "z2-z2^5.cmodule.json"
    save_document(doc, trivial_module(cyclic_group(2), z2_5))
    code = main(["oracle", "cohomology", "--module", str(doc), "--degree", "3", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["order"] == 32


def test_cohomology_cache_is_keyed_by_value():
    """Equal modules built apart hash alike and share one cached group."""
    a = trivial_module(cyclic_group(2), cyclic_group(3))
    b = trivial_module(cyclic_group(2), cyclic_group(3))
    assert a is not b and a == b and hash(a) == hash(b)
    assert cohomology(a, 2) is cohomology(b, 2)


def test_cohomology_groups_compare_and_hash_by_value(monkeypatch, empty_class_memo):
    """Two computations of one group are equal, hash alike, and so do their classes."""
    import bfly.cohomology as coh

    m = dict(standard_modules())["K4-Z2-a0"]
    monkeypatch.setattr(coh, "_COHOM_CACHE", {})
    first = cohomology(m, 3)
    monkeypatch.setattr(coh, "_COHOM_CACHE", {})
    second = cohomology(m, 3)
    assert first is not second and first._basis is not second._basis
    assert first == second and hash(first) == hash(second)
    assert first.zero() == second.zero()
    assert len({first.zero(), second.zero()}) == 1
    assert first != cohomology(m, 2)


def test_cohomology_builds_no_group_of_its_order():
    """H^3(K4, trivial Z2^3) = Z2^12 has order 4096, over the default cap."""
    from bfly.catalog import klein_group

    h3 = cohomology(trivial_module(klein_group(), ref_mixed_radix_group((2, 2, 2))), 3)
    assert h3.factors == (2,) * 12 and h3.order == 4096


def test_brute_force_does_not_import_numpy_ma():
    """Counting distinct coboundaries must not load numpy.ma (its import
    alone costs about 1.3 MB of peak RSS)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import sys\n"
        "from bfly.catalog import standard_modules\n"
        "from bfly.cohomology import cohomology_brute\n"
        "m = dict(standard_modules())['Z2-Z2-a0']\n"
        "print([cohomology_brute(m, d) for d in (1, 2, 3)])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(cohomology_brute.__code__.co_filename).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[2, 2, 2]", "False"]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=4, max_size=4))
def test_coboundary_squares_to_zero(z3_z3_triv, vals):
    values = np.zeros((3, 3), dtype=np.int64)
    values[1:, 1:] = np.array(vals).reshape(2, 2)  # cochains are normalized
    f = build_cochain(z3_z3_triv, 2, values)
    assert not np.any(coboundary(coboundary(f)).values)


def test_cochain_arithmetic(z2_z2_triv):
    f = build_cochain(z2_z2_triv, 2, [[0, 0], [0, 1]])
    assert add_cochains(f, neg_cochain(f)) == zero_cochain(z2_z2_triv, 2)
    assert is_cocycle(f)


def test_classify_rejects_non_cocycles(z3_z3_triv):
    g = cohomology(z3_z3_triv, 2)
    bad = build_cochain(z3_z3_triv, 2, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    if not is_cocycle(bad):
        with pytest.raises(NotACocycle):
            g.classify(bad)


def test_class_arithmetic(z2_z2_triv):
    g = cohomology(z2_z2_triv, 2)
    f = build_cochain(z2_z2_triv, 2, [[0, 0], [0, 1]])
    cls = g.classify(f)
    assert not cls.is_zero()
    assert (cls + cls).is_zero()
    assert (-cls) == cls
    assert g.classify(cls.representative) == cls


def test_extension_from_cocycle_builds_z4(z2_z2_triv, z4):
    f = build_cochain(z2_z2_triv, 2, [[0, 0], [0, 1]])
    ext = extension_from_2cocycle(f)
    assert ext.middle.order == 4
    assert find_isomorphisms(ext.middle, z4, limit=1)


def test_cocycle_extension_roundtrip(z2_z2_triv, z3_z3_triv):
    for m in (z2_z2_triv, z3_z3_triv):
        g = cohomology(m, 2)
        for coords in np.ndindex(*(g.factors or (1,))):
            f = g.representative(coords)
            ext = extension_from_2cocycle(f)
            assert g.classify(cocycle_of_extension(ext)) == g.classify(f)


def test_zero_cocycle_gives_split_extension(z2_z3_inv):
    ext = extension_from_2cocycle(zero_cochain(z2_z3_inv, 2))
    assert are_fibre_isomorphic(ext, unit_extension(z2_z3_inv))


def test_class_of_extension_section_independent(z2_z2_triv):
    f = build_cochain(z2_z2_triv, 2, [[0, 0], [0, 1]])
    ext = extension_from_2cocycle(f)
    base = class_of_extension(ext)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        assert class_of_extension(ext, rng=rng) == base


def test_push_class_along_morphism(z2_z2_triv, z2_z3_inv):
    # the only module morphism (Z2,triv) -> (Z3,inv) over Z2 is zero, and
    # H^2 of the target is trivial, so every pushed class vanishes
    z2g = z2_z2_triv.coeff
    beta = cmodule_morphism(z2_z2_triv, z2_z3_inv, build_hom(z2g, z2_z3_inv.coeff, [0, 0]))
    g = cohomology(z2_z2_triv, 2)
    f = g.representative((1,))
    pushed = push_class(beta, g.classify(f))
    assert pushed.is_zero()
    assert map_cochain(beta, f) == zero_cochain(z2_z3_inv, 2)


# --- references: the loops the face plan replaced -------------------------
#
# Each is kept here as it stood before the bar faces were written once
# (cohomology._faces), so that the solver and the brute force, which now
# share that plan, are still checked against an independent definition.


def reference_coboundary(f: Cochain) -> Cochain:
    """Group-level bar coboundary; target degree f.degree + 1."""
    m = f.module
    c_grp, b_grp = m.base, m.coeff
    nc = c_grp.order
    d = f.degree
    out = np.zeros((nc,) * (d + 1), dtype=np.int64)
    for t in itertools.product(range(nc), repeat=d + 1):
        acc = m.xi(t[0], int(f.values[t[1:]]))
        sign = -1
        for i in range(d):
            merged = t[:i] + (c_grp.add(t[i], t[i + 1]),) + t[i + 2:]
            v = int(f.values[merged])
            acc = b_grp.add(acc, v if sign > 0 else b_grp.neg(v))
            sign = -sign
        v = int(f.values[t[:d]])
        acc = b_grp.add(acc, v if sign > 0 else b_grp.neg(v))
        out[t] = acc
    return Cochain(d + 1, m, out)


def reference_action_matrix(m, dec, c: int) -> np.ndarray:
    """Integer matrix of xi(c, -) in the cyclic coordinates."""
    k = max(1, len(dec.factors))
    mat = np.zeros((k, k), dtype=object)
    for j, d in enumerate(dec.factors):
        e_j = dec.from_vec[
            tuple(1 if i == j else 0 for i in range(len(dec.factors)))
        ]
        img = m.xi(c, e_j)
        mat[:, j] = dec.to_vec[img]
    return mat


def reference_coboundary_matrix(m, dec, degree: int):
    """Integer block matrix of the coboundary on normalized cochains."""
    c_grp = m.base
    nc = c_grp.order
    k = max(1, len(dec.factors))
    src = _nonzero_tuples(nc, degree)
    tgt = _nonzero_tuples(nc, degree + 1)
    src_pos = {t: i for i, t in enumerate(src)}
    mat = np.zeros((len(tgt) * k, len(src) * k), dtype=object)
    eye = np.eye(k, dtype=object)

    def add_block(row: int, t: tuple[int, ...], block) -> None:
        if degree > 0 and 0 in t:
            return
        col = src_pos[t]
        mat[row * k: (row + 1) * k, col * k: (col + 1) * k] += block

    for r, t in enumerate(tgt):
        add_block(r, t[1:], reference_action_matrix(m, dec, t[0]))
        sign = -1
        for i in range(degree):
            merged = t[:i] + (c_grp.add(t[i], t[i + 1]),) + t[i + 2:]
            add_block(r, merged, eye * sign)
            sign = -sign
        add_block(r, t[:degree], eye * sign)
    return mat, src, tgt


def reference_z1(module) -> Z1Result:
    """Maps phi with phi(c + c') = phi(c) + xi(c, phi(c')), pointwise sum."""
    c_grp, b_grp = module.base, module.coeff
    nc, nb = c_grp.order, b_grp.order
    maps = []
    for tail in itertools.product(range(nb), repeat=nc - 1):
        phi = (0,) + tail
        if all(
            phi[c_grp.add(c1, c2)] == b_grp.add(phi[c1], module.xi(c1, phi[c2]))
            for c1 in range(nc)
            for c2 in range(nc)
        ):
            maps.append(phi)
    pos = {phi: i for i, phi in enumerate(maps)}
    table = [
        [pos[tuple(b_grp.add(a, b) for a, b in zip(p1, p2))] for p2 in maps]
        for p1 in maps
    ]
    group = _group(table)   # pointwise sum; the zero cocycle comes first
    return Z1Result(group=group, cocycles=tuple(maps))


def reference_pointed_section(gamma, rng):
    """Section of a surjection with s(0) = 0; least-index or seeded-random."""
    fibres: dict[int, list[int]] = {}
    for e in gamma.dom.elements():
        fibres.setdefault(gamma(e), []).append(e)
    section = {}
    for c, es in sorted(fibres.items()):
        if c == 0:
            section[c] = 0
        elif rng is None:
            section[c] = min(es)
        else:
            section[c] = int(es[rng.integers(len(es))])
    return section


def reference_cocycle_of_extension(ext, rng=None) -> Cochain:
    """Failure of a pointed section to be a homomorphism, as a 2-cochain."""
    m = ext.module
    b_grp, c_grp = m.coeff, m.base
    e_grp = ext.middle
    kappa, gamma = ext.kernel_arrow, ext.quotient_arrow
    in_b = {kappa(b): b for b in b_grp.elements()}
    s = reference_pointed_section(gamma, rng)
    nc = c_grp.order
    vals = np.zeros((nc, nc), dtype=np.int64)
    for c1 in range(nc):
        for c2 in range(nc):
            defect = e_grp.sub(
                e_grp.add(s[c1], s[c2]), s[c_grp.add(c1, c2)]
            )
            vals[c1, c2] = in_b[defect]
    f = build_cochain(m, 2, vals)
    require(is_cocycle(f))
    return f


def reference_cocycle_of_crossed_extension(e, rng=None) -> Cochain:
    """Associativity defect of section lifts, as a normalized 3-cochain."""
    m = e.module
    b_grp, c_grp = m.coeff, m.base
    e1, e2 = e.e1, e.e2
    bnd = e.xm.boundary
    s = reference_pointed_section(e.p, rng)
    image = sorted(set(bnd.map.tolist()))
    t_fibres: dict[int, list[int]] = {g: [] for g in image}
    for x in e2.elements():
        t_fibres[bnd(x)].append(x)
    t = {}
    for g in image:
        if g == 0:
            t[g] = 0
        elif rng is None:
            t[g] = min(t_fibres[g])
        else:
            t[g] = int(t_fibres[g][rng.integers(len(t_fibres[g]))])
    in_b = {e.j(b): b for b in b_grp.elements()}
    nc = c_grp.order

    def g_of(c1: int, c2: int) -> int:
        return t[e1.sub(e1.add(s[c1], s[c2]), s[c_grp.add(c1, c2)])]

    vals = np.zeros((nc, nc, nc), dtype=np.int64)
    for c1 in range(nc):
        for c2 in range(nc):
            for c3 in range(nc):
                z = e.xm.act(s[c1], g_of(c2, c3))
                z = e2.add(z, g_of(c1, c_grp.add(c2, c3)))
                z = e2.sub(z, g_of(c_grp.add(c1, c2), c3))
                z = e2.sub(z, g_of(c1, c2))
                vals[c1, c2, c3] = in_b[z]
    f = build_cochain(m, 3, vals)
    require(is_cocycle(f))
    return f


@pytest.fixture(scope="module")
def modules():
    return standard_modules()


def _random_cochain(m, degree: int, rng) -> Cochain:
    nc = m.base.order
    values = rng.integers(m.coeff.order, size=(nc,) * degree)
    values[(np.indices(values.shape) == 0).any(axis=0)] = 0
    return build_cochain(m, degree, values)


def test_coboundary_matches_scalar_reference(modules):
    assert len(modules) == 22
    rng = np.random.default_rng(2023)
    for name, m in modules:
        for degree in (0, 1, 2, 3):
            for _ in range(5):
                f = _random_cochain(m, degree, rng)
                assert coboundary(f) == reference_coboundary(f), (name, degree)


def test_coboundary_matrix_matches_block_reference(modules):
    for name, m in modules:
        dec = cyclic_decomposition(m.coeff)
        for degree in (0, 1, 2, 3):
            got = _coboundary_matrix(m, dec, degree)
            want, _, _ = reference_coboundary_matrix(m, dec, degree)
            assert got.dtype == np.int64 and got.shape == want.shape, (name, degree)
            assert np.array_equal(got, want), (name, degree)


def test_z1_matches_loop_reference(modules):
    for name, m in modules:
        got, want = z1(m), reference_z1(m)
        assert got == want, name
        assert np.array_equal(got.group.inv, want.group.inv), name


def test_bridge_cocycles_match_loop_reference(modules):
    seeds = (None, 1, 2, 3)
    n = 0
    for name, m in modules:
        cases = [
            (cocycle_of_extension, reference_cocycle_of_extension, ext)
            for ext in h2_catalog(m)
        ] + [
            (cocycle_of_crossed_extension, reference_cocycle_of_crossed_extension, e)
            for _, e in h3_catalog(m, modules)
        ]
        for new, old, obj in cases:
            for seed in seeds:
                rngs = [None if seed is None else np.random.default_rng(seed)
                        for _ in range(2)]
                assert new(obj, rngs[0]) == old(obj, rngs[1]), name
                n += 1
    assert n > 400


def _nonabelian_e2_xext(s3, z3):
    """1 >-> S3 -> S3 x Z3 ->> Z3, with S3 x Z3 acting on S3 by conjugation."""
    prod = direct_product(s3, z3)
    g = prod.proj1.map
    act = s3.table[s3.table[g[:, None], np.arange(6)[None, :]], s3.inv[g][:, None]]
    xm = build_crossed_module(prod.inj1, build_action(prod.group, s3, act))
    return build_crossed_extension(zero_hom(trivial_group(), s3), xm, prod.proj2)


def test_crossed_bridge_on_a_nonabelian_e2(s3, z3):
    """Seeded sections give noncommuting lifts g(c1, c2) in E2 = S3, so the
    defect is zero only when its terms are summed in their bar order.
    """
    e = _nonabelian_e2_xext(s3, z3)
    for seed in (None, 1, 2, 3):
        rngs = [None if seed is None else np.random.default_rng(seed) for _ in range(2)]
        f = cocycle_of_crossed_extension(e, rngs[0])
        assert f == reference_cocycle_of_crossed_extension(e, rngs[1])
        assert f == zero_cochain(e.module, 3)


def test_stacked_classes_match_successive_one_row_calls(modules, s3, z3):
    """A stack of re-chosen cocycles gives, class for class, what that many
    one-row calls and the loop reference give, the reference's cocycles
    draw for draw, and leaves the rng in the same state.  The coinduced
    extensions have fibres of |B| elements over the boundary's image, so
    the sections t are drawn too.
    """
    mods = dict(modules)
    exts = [e for _, m in modules for _, e in h3_catalog(m, modules)]
    exts.append(_nonabelian_e2_xext(s3, z3))
    exts += [coinduced_xext(mods[name], coords) for name, coords in
             [("Z2-Z2-a0", (1,)), ("Z3-Z2-a0", (0,)), ("Z2-Z4-a0", (1,)),
              ("Z3-Z3-a0", (2,))]]
    for e in exts:
        h3 = cohomology(e.module, 3)
        for seed in (None, 1, 2, 3):
            rngs = [None if seed is None else np.random.default_rng(seed) for _ in range(4)]
            got = classes_of_crossed_extensions([e], rngs[0], 5)
            assert got == [class_of_crossed_extension(e, rngs[1]) for _ in range(5)]
            want = [reference_cocycle_of_crossed_extension(e, rngs[2]) for _ in range(5)]
            assert got == [h3.classify(f) for f in want]
            rows, failure = _crossed_cocycle_rows(e, rngs[3], 5)    # draw for draw
            assert failure is None
            assert np.array_equal(rows, np.stack([f.values.reshape(-1) for f in want]))
            if seed is not None:
                states = [r.bit_generator.state for r in rngs]
                assert states[0] == states[1] == states[2] == states[3]
    # the stack spans extensions of one module, each in turn
    m = mods["Z3-Z3-a0"]
    pair = [coinduced_xext(m, (1,)), coinduced_xext(m, (2,))]
    rngs = [np.random.default_rng(7) for _ in range(2)]
    got = classes_of_crossed_extensions(pair, rngs[0], 3)
    assert got == [class_of_crossed_extension(e, rngs[1]) for e in pair for _ in range(3)]
    assert [c.coords for c in got] == [(1,)] * 3 + [(2,)] * 3
    with pytest.raises(ModuleMismatch):
        classes_of_crossed_extensions([pair[0], unit_xext(mods["Z3-Z2-a0"])])


def _failure(call):
    try:
        call()
    except BflyError as err:
        return type(err), str(err)
    return None


def _stack_and_one_row_failures(exts, seed: int, count: int):
    rngs = [np.random.default_rng(seed) for _ in range(2)]

    def one_row_calls():
        for e in exts:
            for _ in range(count):
                class_of_crossed_extension(e, rngs[1])

    return (_failure(lambda: classes_of_crossed_extensions(exts, rngs[0], count)),
            _failure(one_row_calls))


def test_stack_raises_what_the_one_row_path_raises_first(modules):
    mods = dict(modules)
    outside_j = (LawViolation, "associativity defect outside j(B)")
    not_cocycle = (NotACocycle, "not a cocycle")
    trivial_j = lambda e: dataclasses.replace(  # noqa: E731
        e, j=_hom(trivial_group(), e.e2, [0]))
    # one bad row: the defect leaves j(B) for some draws, after good rows
    cut = trivial_j(coinduced_xext(mods["Z3-Z2-a0"], (0,)))
    rows, failure = _crossed_cocycle_rows(cut, np.random.default_rng(1), 6)
    assert 0 < len(rows) < 6 and failure == outside_j[1]
    assert _stack_and_one_row_failures([cut], 1, 6) == (outside_j, outside_j)
    # one bad row: a cocycle of the trivial Z4-Z3 module read in the twisted
    # one, where a seeded section pair makes it no cocycle
    twisted = mods["Z4-Z3-a1"]
    misread = dataclasses.replace(coinduced_xext(mods["Z4-Z3-a0"], (0,)), module=twisted)
    unit = unit_xext(twisted)
    assert _stack_and_one_row_failures([unit, misread], 1, 2) == (not_cocycle, not_cocycle)
    # two bad rows of either kind: the first one's failure is raised
    assert _stack_and_one_row_failures([misread, trivial_j(misread)], 1, 1) == (
        not_cocycle, not_cocycle)
    assert _stack_and_one_row_failures([trivial_j(misread), misread], 1, 1) == (
        outside_j, outside_j)


def test_memoized_classes_equal_fresh_classifications(modules, empty_class_memo):
    """Every extension of h2_catalog and h3_catalog of the 22 modules: its
    class from the memo equals a classification made with the memo emptied,
    and the memo holds one entry per distinct (module, extension)."""
    exts2 = [(m, e) for _, m in modules for e in h2_catalog(m)]
    exts3 = [(m, [e for _, e in h3_catalog(m, modules)]) for _, m in modules]
    memo2 = [class_of_extension(e) for _, e in exts2]
    memo3 = [classes_of_crossed_extensions(es) for _, es in exts3]
    keys = set(exts2) | {(m, e) for m, es in exts3 for e in es}
    assert set(empty_class_memo) == keys and len(empty_class_memo) == len(keys)
    # the second call of each is answered from the memo
    assert all(class_of_extension(e) is c for (_, e), c in zip(exts2, memo2))
    for (_, es), cs in zip(exts3, memo3):
        assert all(a is b for a, b in zip(classes_of_crossed_extensions(es), cs))
        assert all(class_of_crossed_extension(e) is c for e, c in zip(es, cs))
    empty_class_memo.clear()
    for (m, e), c in zip(exts2, memo2):
        assert c == cohomology(m, 2).classify(cocycle_of_extension(e))
    for (m, es), cs in zip(exts3, memo3):
        assert cs == [cohomology(m, 3).classify(cocycle_of_crossed_extension(e)) for e in es]
    assert not empty_class_memo


def test_seeded_calls_draw_as_before_and_store_nothing(modules, empty_class_memo):
    """With an rng the classes are what classifying the seeded cocycles
    gives, draw for draw, whether or not the memo holds the extension."""
    mods = dict(modules)
    m2, m3 = mods["Z2-Z4-a0"], mods["Z3-Z3-a0"]
    ext = h2_catalog(m2)[1]
    xexts = [coinduced_xext(m3, (1,)), coinduced_xext(m3, (2,))]

    def seeded_calls():
        for seed in (1, 2, 3):
            rngs = [np.random.default_rng(seed) for _ in range(2)]
            got = class_of_extension(ext, rngs[0])
            assert got == cohomology(m2, 2).classify(cocycle_of_extension(ext, rngs[1]))
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
            rngs = [np.random.default_rng(seed) for _ in range(2)]
            got = classes_of_crossed_extensions(xexts, rngs[0])
            got.append(class_of_crossed_extension(xexts[0], rngs[0]))
            rows = [_crossed_cocycle_rows(e, rngs[1], 1) for e in xexts + xexts[:1]]
            assert all(failure is None for _, failure in rows)
            assert got == cohomology(m3, 3).classify_rows(np.concatenate([r for r, _ in rows]))
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    seeded_calls()
    assert not empty_class_memo
    class_of_extension(ext)
    classes_of_crossed_extensions(xexts)
    before = list(empty_class_memo.items())
    seeded_calls()
    assert list(empty_class_memo.items()) == before


def test_failing_extensions_raise_on_every_call_and_are_never_stored(
        modules, empty_class_memo):
    mods = dict(modules)
    # the nonzero Z2-Z4 class read in the twisted module is no cocycle there
    misread = dataclasses.replace(h2_catalog(mods["Z2-Z4-a0"])[1], module=mods["Z2-Z4-a1"])
    # the least-index sections of the spliced class, cut off from j(B)
    m = mods["Z2-Z2-a0"]
    spliced = dict(h3_catalog(m, modules))["spliced-nontrivial"]
    cut = dataclasses.replace(spliced, j=_hom(trivial_group(), spliced.e2, [0]))
    unit = unit_xext(m)
    not_cocycle = (NotACocycle, "not a cocycle")
    outside_j = (LawViolation, "associativity defect outside j(B)")
    # what the bridges raise without the memo
    assert _failure(lambda: cohomology(misread.module, 2).classify(
        cocycle_of_extension(misread))) == not_cocycle
    assert _crossed_cocycle_rows(cut, None, 1)[1] == outside_j[1]
    calls = [(lambda: class_of_extension(misread), not_cocycle),
             (lambda: class_of_crossed_extension(cut), outside_j),
             (lambda: classes_of_crossed_extensions([unit, cut]), outside_j)]
    for call, want in calls:
        for _ in range(3):
            assert _failure(call) == want
        assert not empty_class_memo
    # a memoized class in the stack does not change what it raises
    class_of_crossed_extension(unit)
    assert _failure(lambda: classes_of_crossed_extensions([unit, cut])) == outside_j
    assert list(empty_class_memo) == [(m, unit)]


def test_class_memo_evicts_its_least_recent_entry_past_the_bound(
        modules, monkeypatch, empty_class_memo):
    import bfly.bridges as bridges

    monkeypatch.setattr(bridges, "_CLASSES_BOUND", 2)
    a, b, c = [e for _, m in modules[:3] for e in h2_catalog(m)][:3]
    for e in (a, b, a, c):
        class_of_extension(e)
    assert [e for _, e in empty_class_memo] == [a, c]
    class_of_extension(b)
    assert [e for _, e in empty_class_memo] == [c, b]
    # the distinct misses of a stack are stored in its order
    named = dict(h3_catalog(dict(modules)["Z2-Z2-a0"], modules))
    xs = [named[k] for k in ("unit", "tensor-unit-unit", "spliced-trivial", "spliced-nontrivial")]
    assert xs[0] == xs[1]
    classes_of_crossed_extensions(xs)
    assert [e for _, e in empty_class_memo] == xs[2:]


def test_the_same_extension_with_another_module_misses(modules, empty_class_memo):
    mods = dict(modules)
    m, twisted = mods["Z4-Z3-a0"], mods["Z4-Z3-a1"]
    for ext, classify in ((unit_extension(m), class_of_extension),
                          (unit_xext(m), class_of_crossed_extension)):
        here = classify(ext)
        carried = dataclasses.replace(ext, module=twisted)
        assert carried == ext                   # extensions compare by their arrows
        there = classify(carried)
        assert here.group.module == m and there.group.module == twisted
        assert there != here and classify(carried) is there
    assert len(empty_class_memo) == 4
    ext = h2_catalog(mods["Z2-Z4-a0"])[1]
    class_of_extension(ext)
    misread = dataclasses.replace(ext, module=mods["Z2-Z4-a1"])
    assert _failure(lambda: class_of_extension(misread)) == (NotACocycle, "not a cocycle")


def test_cocycles_match_the_row_major_loop(modules):
    n = 0
    for name, m in modules:
        for degree in (1, 2, 3):
            if m.coeff.order ** ((m.base.order - 1) ** degree) > BRUTE_FORCE_CAP:
                continue
            got, want = _cocycles(m, degree), ref_cocycles(m, degree)
            assert got.dtype == want.dtype and np.array_equal(got, want), (name, degree)
            n += 1
    assert n == 22 * 2 + 5 + 3     # degrees 1 and 2 everywhere, 3 over Z2 and Z3


def test_cocycles_checks_each_column_once_when_its_faces_are_assigned(
        modules, monkeypatch, empty_class_memo):
    """Every coboundary column is checked exactly once, on the rows of the
    step that assigns the last nonzero tuple its faces read; columns whose
    faces read none are checked on the zero cochain before the first step."""
    import bfly.cohomology as coh

    calls = []
    real = coh._coboundary_values

    def spy(module, degree, rows, cols=slice(None)):
        calls.append((np.asarray(cols).tolist(), rows.copy()))
        return real(module, degree, rows, cols)

    monkeypatch.setattr(coh, "_coboundary_values", spy)
    mods = dict(modules)
    for name, degree in [("Z3-Z4-a0", 3), ("K4-Z2-a0", 2), ("Z4-Z3-a1", 1)]:
        m = mods[name]
        calls.clear()
        coh._cocycles(m, degree)
        nc = m.base.order
        free = np.flatnonzero(coh._nonzero_mask(nc, degree))
        pos = {int(t): p for p, t in enumerate(free)}
        faces, _ = coh._faces(m.base, degree)
        checked = []
        for cols, rows in calls:
            # tuples after the step are still 0; the step's own tuple takes every value
            assigned = [p for p, t in enumerate(free) if rows[:, t].any()]
            step = max(assigned, default=-1)
            for col in cols:
                assert max((pos.get(int(f), -1) for f in faces[col]), default=-1) == step, (
                    name, col)
            checked.extend(cols)
        assert sorted(checked) == list(range(nc ** (degree + 1))), name
        assert len(checked) == nc ** (degree + 1), name
        assert calls[0][1].shape[0] == 1 and not calls[0][1].any(), name


def test_cocycles_grow_partial_cochains_without_the_candidate_matrix(
        modules, monkeypatch, empty_class_memo):
    """Pruning keeps every coboundary call small: 1,024 rows at most on the
    two largest systems under the cap, where the candidate matrix has
    262,144 and 65,536 rows."""
    import bfly.cohomology as coh

    seen = []
    real = coh._coboundary_values

    def spy(module, degree, rows, cols=slice(None)):
        seen.append(len(rows))
        return real(module, degree, rows, cols)

    def refuse(module, degree):
        raise AssertionError("_cocycles built the candidate matrix")

    monkeypatch.setattr(coh, "_coboundary_values", spy)
    monkeypatch.setattr(coh, "_candidate_matrix", refuse)
    mods = dict(modules)
    for name, degree in [("K4-Z4-a1", 2), ("Z3-Z4-a0", 3)]:
        seen.clear()
        coh._cocycles(mods[name], degree)
        assert seen and max(seen) <= 4096, (name, max(seen))


def test_cocycles_match_the_loop_and_the_solver_beyond_the_catalog(s3):
    """Every action of S3 on Z2 and Z3, of K4 on K4, of Z5 on Z2 and of Z2
    and Z3 on Z2 x Z2: 43 systems outside the standard modules."""
    from bfly.actions import build_cmodule
    from bfly.catalog import all_actions

    z2, z3, k4 = cyclic_group(2), cyclic_group(3), ref_mixed_radix_group((2, 2))
    systems = [(s3, z2, (1,)), (s3, cyclic_group(3), (1,)), (k4, k4, (1, 2)),
               (cyclic_group(5), z2, (1, 2)), (z2, k4, (1, 2, 3)), (z3, k4, (1, 2))]
    n = 0
    for c, b, degrees in systems:
        for act in all_actions(c, b):
            m = build_cmodule(c, b, act.act)
            for degree in degrees:
                got, want = _cocycles(m, degree), ref_cocycles(m, degree)
                assert got.dtype == want.dtype and np.array_equal(got, want), (degree, act.act)
                assert cohomology(m, degree).order == cohomology_brute(m, degree)
                n += 1
    assert n == 43


def test_vector_and_cochain_gathers_match_the_loops(modules):
    """_vector and _cochain against the loops they replaced, on every class
    of H1..H3 of every standard module."""
    n = 0
    for name, m in modules:
        for degree in (1, 2, 3):
            g = cohomology(m, degree)
            gens = [i for i, s in enumerate(g._sdiag) if s > 1]
            reps = []
            for coords in itertools.product(*[range(f) for f in g.factors]):
                v = np.zeros(g._basis.shape[0], dtype=object)
                for c, i in zip(coords, gens):
                    v += c * g._basis[:, i]
                f = g._cochain(v)
                assert f == ref_cochain(g, v) == g.representative(coords), (name, degree)
                reps.append(f)
            stack = g._vector(np.stack([f.values.reshape(-1) for f in reps]))
            assert stack.dtype == np.int64 and stack.shape == (g._basis.shape[0], len(reps))
            for col, f in zip(stack.T, reps):
                assert np.array_equal(col, ref_vector(g, f)), (name, degree)
            n += len(reps)
    assert n > 22 * 3


def test_bridge_rejects_a_defect_outside_the_kernel(z2_z2_triv):
    # Z4 as the nonzero extension of Z2 by Z2, with its kernel arrow cut
    # down to the trivial group: the defect s(1) + s(1) leaves the image
    ext = extension_from_2cocycle(build_cochain(z2_z2_triv, 2, [[0, 0], [0, 1]]))
    cut = dataclasses.replace(
        ext, kernel_arrow=_hom(trivial_group(), ext.middle, [0])
    )
    with pytest.raises(LawViolation, match="outside the kernel"):
        cocycle_of_extension(cut)
