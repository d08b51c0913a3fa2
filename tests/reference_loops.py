"""The pointwise loops that the array searches replaced, kept as references.

Each function is the earlier library code, verbatim apart from its name and
the reference functions it calls, so the tests can compare the array
versions with the loops they replaced list for list.
"""

import itertools

import numpy as np

from bfly import _kernels
from bfly.actions import (
    CModuleMorphism,
    GroupAction,
    build_action,
    build_cmodule,
    cmodule_morphism,
    cmodule_product,
    pair_codiagonal,
)
from bfly.butterflies import (
    Butterfly,
    ButterflyIso,
    XExtMorphism,
    _butterfly,
    build_crossed_extension,
    build_xext_morphism,
    inverse_xext,
    is_flippable,
    product_xext_with_data,
    pushforward_xext,
    unit_xext,
)
from bfly.cohomology import (
    Cochain,
    CyclicDecomposition,
    _candidate_matrix,
    _coboundary_values,
    _nonzero_tuples,
    cyclic_group,
)
from bfly.crossed import CrossedModule, InternalGroupoid, build_crossed_module
from bfly.extensions import ExtensionLift, _extension
from bfly.errors import (
    ActionNotWellDefined,
    BaseMismatch,
    ButterflyConditionViolation,
    CooperatorFails,
    DomainMismatch,
    ImagesDoNotCommute,
    LawViolation,
    ModuleMismatch,
    NotCentral,
    NotEquivariant,
    NotExact,
    NotHomomorphism,
    PeifferViolation,
    PreCrossedViolation,
    TypeMismatch,
    require,
)
from bfly.groups import (
    FiniteGroup,
    GroupHom,
    _group,
    _hom,
    _membership,
    build_hom,
    compose,
    direct_product,
    find_isomorphisms,
    identity_hom,
    is_normal,
    is_short_exact,
    kernel,
    pullback,
    semidirect_product,
    zero_hom,
)

SECTION_SCAN_LIMIT = 8  # try every section when the base is at most this big


def ref_build_crossed_module(boundary, action):
    e1, e2, bnd = boundary.cod, boundary.dom, boundary
    for g in e1.elements():
        for x in e2.elements():
            if bnd(action(g, x)) != e1.conj(g, bnd(x)):
                raise PreCrossedViolation(f"at (g, x) = ({g}, {x})")
    for x1 in e2.elements():
        for x2 in e2.elements():
            if action(bnd(x1), x2) != e2.conj(x1, x2):
                raise PeifferViolation(f"at (x1, x2) = ({x1}, {x2})")
    return CrossedModule(boundary=boundary, action=action)


def _extend_by_generators(g, h, gens, images):
    """Propagate a generator assignment to a full map, or None on conflict."""
    m = np.full(g.order, -1, dtype=np.int64)
    m[0] = 0
    frontier = [0]
    while frontier:
        new_frontier = []
        for a in frontier:
            for gen, img in zip(gens, images):
                b = g.add(a, gen)
                v = h.add(int(m[a]), img)
                if m[b] < 0:
                    m[b] = v
                    new_frontier.append(b)
                elif m[b] != v:
                    return None
        frontier = new_frontier
    if (m < 0).any():
        return None
    return m


def ref_magma_generators(table: np.ndarray) -> list[int]:
    """Greedy generating set of the magma: least element outside the closure.

    The closure is taken under the table's own operation only (no inverses),
    so it is valid before the table is known to be a group.  Each element
    enters the closure once and is multiplied by the closure on both sides,
    so the whole pass costs O(n^2).
    """
    n = table.shape[0]
    closed = np.zeros(n, dtype=bool)
    gens: list[int] = []
    for a in range(n):
        if closed[a]:
            continue
        gens.append(a)
        closed[a] = True
        new = np.asarray([a])
        while new.size:
            members = np.flatnonzero(closed)
            fresh = np.zeros(n, dtype=bool)
            fresh[table[np.ix_(new, members)]] = True
            fresh[table[np.ix_(members, new)]] = True
            fresh &= ~closed
            closed |= fresh
            new = np.flatnonzero(fresh)
    return gens


def ref_close_under_group(g: FiniteGroup, seed) -> tuple[int, ...]:
    """Smallest subset containing seed, 0, closed under + and inverse."""
    elems = {0}
    frontier = list(dict.fromkeys(seed))
    for a in frontier:
        elems.add(int(a))
        elems.add(g.neg(int(a)))
    changed = True
    while changed:
        changed = False
        current = sorted(elems)
        for a in current:
            for b in current:
                c = g.add(a, b)
                if c not in elems:
                    elems.add(c)
                    changed = True
    return tuple(sorted(elems))


def ref_normal_closure(g: FiniteGroup, seed) -> tuple[int, ...]:
    """Smallest normal subgroup containing seed."""
    elems = set(ref_close_under_group(g, seed))
    changed = True
    while changed:
        changed = False
        for x in sorted(elems):
            for h in g.elements():
                c = g.conj(h, x)
                if c not in elems:
                    elems.update(ref_close_under_group(g, sorted(elems) + [c]))
                    changed = True
                    break
            if changed:
                break
    return tuple(sorted(elems))


def ref_generating_sequence(g: FiniteGroup) -> tuple[int, ...]:
    """Greedy generating set scanned in increasing index order."""
    gens: list[int] = []
    closed = {0}
    for a in g.elements():
        if a not in closed:
            gens.append(a)
            closed = set(ref_close_under_group(g, gens))
    return tuple(gens)


def ref_all_homs(g, h, limit=None):
    """All homomorphisms G -> H, sorted lexicographically by value table."""
    gens = ref_generating_sequence(g)
    if not gens:
        return [zero_hom(g, h)]
    orders = [g.element_order(a) for a in gens]
    candidates = [
        [x for x in h.elements() if orders[i] % h.element_order(x) == 0]
        for i in range(len(gens))
    ]
    found = []
    for images in itertools.product(*candidates):
        m = _extend_by_generators(g, h, gens, images)
        if m is None:
            continue
        if _kernels.hom_violation(g.table, h.table, m) is None:
            found.append(m)
    found.sort(key=lambda m: m.tolist())
    if limit is not None:
        found = found[:limit]
    return [GroupHom(dom=g, cod=h, map=m) for m in found]


def ref_find_isomorphisms(g, h, limit=None):
    """All isomorphisms G -> H, sorted lexicographically, truncated at limit."""
    if g.order != h.order:
        return []
    isos = [f for f in ref_all_homs(g, h) if f.is_injective()]
    if limit is not None:
        isos = isos[:limit]
    return isos


def ref_mixed_radix_group(factors: tuple[int, ...]) -> FiniteGroup:
    """Z_{d1} x ... x Z_{dk}, coordinate tuples in lexicographic order."""
    group = cyclic_group(1)
    for d in factors:
        group = direct_product(group, cyclic_group(d)).group
    return group


def ref_divisor_chains(n: int) -> list[tuple[int, ...]]:
    """All chains d1 | d2 | ... | dk with product n and di >= 2."""
    if n == 1:
        return [()]
    chains = []

    def rec(remaining: int, prefix: tuple[int, ...]):
        if remaining == 1:
            chains.append(prefix)
            return
        start = prefix[-1] if prefix else 2
        for d in range(start, remaining + 1):
            if remaining % d == 0 and (not prefix or d % prefix[-1] == 0):
                rec(remaining // d, prefix + (d,))

    rec(n, ())
    return chains


def ref_decompose(table_bytes: bytes, order: int) -> CyclicDecomposition:
    """Cyclic decomposition by trying every divisor chain (uncached here)."""
    table = np.frombuffer(table_bytes, dtype=np.int64).reshape(order, order)
    b = _group(table)
    for chain in ref_divisor_chains(order):
        model = ref_mixed_radix_group(chain)
        isos = find_isomorphisms(model, b, limit=1)
        if isos:
            iso = isos[0]
            coords = list(itertools.product(*[range(d) for d in chain]))
            to_vec = np.zeros((order, max(1, len(chain))), dtype=np.int64)
            from_vec = {}
            for i, c in enumerate(coords):
                elem = iso(i)
                to_vec[elem, : len(chain)] = c
                from_vec[c] = elem
            return CyclicDecomposition(chain, to_vec, from_vec)
    raise LawViolation("no cyclic decomposition found (group not abelian?)")


def ref_cmodule_morphism(dom, cod, hom):
    if dom.base != cod.base:
        raise BaseMismatch("module morphisms require the same base group")
    if not isinstance(hom, GroupHom):
        hom = build_hom(dom.coeff, cod.coeff, hom)
    if hom.dom != dom.coeff or hom.cod != cod.coeff:
        raise BaseMismatch("hom does not match module coefficients")
    for c in dom.base.elements():
        for b in dom.coeff.elements():
            if hom(dom.xi(c, b)) != cod.xi(c, hom(b)):
                raise NotEquivariant(
                    f"f(xi({c},{b})) = {hom(dom.xi(c, b))} but "
                    f"xi'({c}, f({b})) = {cod.xi(c, hom(b))}"
                )
    return CModuleMorphism(dom=dom, cod=cod, hom=hom)


def ref_all_module_morphisms(dom, cod):
    """All equivariant homomorphisms dom -> cod, deterministic order."""
    out = []
    for h in ref_all_homs(dom.coeff, cod.coeff):
        try:
            out.append(ref_cmodule_morphism(dom, cod, h))
        except NotEquivariant:
            continue
    return out


def ref_xext_morphisms_over(e, g, beta):
    """All crossed-extension morphisms over beta, by exhaustive hom scan."""
    f1s = [
        f1 for f1 in ref_all_homs(e.e1, g.e1) if compose(g.p, f1) == e.p
    ]
    kernel_target = compose(g.j, beta.hom)
    out = []
    for f2 in ref_all_homs(e.e2, g.e2):
        if compose(f2, e.j) != kernel_target:
            continue
        for f1 in f1s:
            if compose(g.xm.boundary, f2) != compose(f1, e.xm.boundary):
                continue
            if any(
                f2(e.xm.act(h, x)) != g.xm.act(f1(h), f2(x))
                for h in e.e1.elements()
                for x in e.e2.elements()
            ):
                continue
            out.append(
                XExtMorphism(dom=e, cod=g, beta=beta, f2=f2, f1=f1)
            )
    out.sort(key=lambda m: (m.f1.map.tolist(), m.f2.map.tolist()))
    return out


def ref_induced_module(kappa, gamma):
    """Conjugation module on the kernel; section-independent for abelian B."""
    b_grp, e_grp, c_grp = kappa.dom, kappa.cod, gamma.cod
    in_b = {kappa(b): b for b in b_grp.elements()}
    fibres = {c: [] for c in c_grp.elements()}
    for e in e_grp.elements():
        fibres[gamma(e)].append(e)
    act = np.zeros((c_grp.order, b_grp.order), dtype=np.int64)
    scan_all = c_grp.order <= SECTION_SCAN_LIMIT
    for c in c_grp.elements():
        reps = fibres[c] if scan_all else fibres[c][:1]
        for b in b_grp.elements():
            imgs = {e_grp.conj(e, kappa(b)) for e in reps}
            if len(imgs) != 1:
                raise NotExact(
                    f"conjugation module is section-dependent at c={c}, b={b}"
                )
            img = imgs.pop()
            if img not in in_b:
                raise NotExact(f"kernel is not normal at c={c}, b={b}")
            act[c, b] = in_b[img]
    return build_cmodule(c_grp, b_grp, act)


def ref_induced_module_via_j(j, xm, p):
    """Module structure on dom(j) induced by the ambient action through p."""
    b_grp, e2 = j.dom, xm.e2
    in_b = {j(b): b for b in b_grp.elements()}
    for b in b_grp.elements():
        jb = j(b)
        for x in e2.elements():
            if e2.add(jb, x) != e2.add(x, jb):
                raise NotCentral(f"j({b}) does not commute with {x}")
    c_grp = p.cod
    lifts = {c: [] for c in c_grp.elements()}
    for g in xm.e1.elements():
        lifts[p(g)].append(g)
    act = np.zeros((c_grp.order, b_grp.order), dtype=np.int64)
    for c in c_grp.elements():
        for b in b_grp.elements():
            imgs = {xm.act(g, j(b)) for g in lifts[c]}
            if len(imgs) != 1:
                raise ActionNotWellDefined(
                    f"lifts of {c} act differently on kernel element {b}"
                )
            img = imgs.pop()
            if img not in in_b:
                raise ActionNotWellDefined(
                    f"action of {c} leaves the kernel at {b}"
                )
            act[c, b] = in_b[img]
    return build_cmodule(c_grp, b_grp, act)


# --- the diagram layer: groups, crossed extensions and butterflies ----------


def ref_quotient_by(g, normal_elements):
    """Quotient by a normal subgroup; cosets labeled by least member."""
    nelems = sorted(set(int(e) for e in normal_elements))
    member = _membership(g, nelems)
    # a finite subset that holds 0 and is closed under + is a subgroup
    subgroup = member[0] and member[g.table[np.ix_(nelems, nelems)]].all()
    require(subgroup and is_normal(g, nelems), "quotient_by requires a normal subgroup")
    rep = np.full(g.order, -1, dtype=np.int64)
    for a in g.elements():
        if rep[a] < 0:
            coset = g.table[a, nelems]
            rep[coset] = coset.min()
    labels = np.flatnonzero(rep == np.arange(g.order))    # least members
    pos = np.full(g.order, -1, dtype=np.int64)
    pos[labels] = np.arange(len(labels))
    q = _group(pos[rep[g.table[np.ix_(labels, labels)]]])
    return q, _hom(g, q, pos[rep])


def ref_cooperator(kappa, iota):
    """(x, y) |-> kappa(x) + iota(y), defined when the images commute."""
    if kappa.cod != iota.cod:
        raise DomainMismatch("cooperator requires a shared codomain")
    f = kappa.cod
    for x in kappa.dom.elements():
        for y in iota.dom.elements():
            u, v = kappa(x), iota(y)
            if f.add(u, v) != f.add(v, u):
                raise ImagesDoNotCommute(
                    f"kappa({x}) = {u} and iota({y}) = {v} do not commute"
                )
    prod = direct_product(kappa.dom, iota.dom)
    ny = iota.dom.order
    m = np.asarray(
        [
            f.add(kappa(x), iota(y))
            for x in kappa.dom.elements()
            for y in range(ny)
        ]
    )
    return build_hom(prod.group, f, m)


def ref_hom_from_cosets(proj, quotient_map_target):
    """Unique hom q -> T with result . proj = quotient_map_target."""
    q = proj.cod
    t = quotient_map_target.cod
    m = np.full(q.order, -1, dtype=np.int64)
    for a in proj.dom.elements():
        i = proj(a)
        v = quotient_map_target(a)
        if m[i] < 0:
            m[i] = v
        elif m[i] != v:
            raise NotHomomorphism("map does not factor through the quotient")
    return build_hom(q, t, m)


def ref_associated_groupoid(xm):
    sd = semidirect_product(xm.action)
    e1, e2 = xm.e1, xm.e2
    total = sd.group
    ng = e1.order
    bnd = xm.boundary
    d_map = np.asarray(
        [e1.add(bnd(x), g) for x in e2.elements() for g in e1.elements()]
    )
    d = build_hom(total, e1, d_map)
    c = sd.retraction
    unit_section = sd.inj_actor
    ker_c_section = sd.inj_normal
    kd = np.asarray([e2.neg(x) * ng + bnd(x) for x in e2.elements()])
    ker_d_section = build_hom(e2, total, kd)
    require(all(d(ker_d_section(x)) == 0 for x in e2.elements()))
    return InternalGroupoid(
        total=total,
        d=d,
        c=c,
        unit_section=unit_section,
        ker_d_section=ker_d_section,
        ker_c_section=ker_c_section,
        semidirect=sd,
    )


def ref_pushforward_xext(e, beta):
    """Cocartesian lift along beta: middle (B' x E2)/{(beta b, -j b)}."""
    if beta.dom != e.module:
        raise ModuleMismatch("beta must start at the extension's module")
    bp = beta.cod.coeff
    e2 = e.e2
    prod = direct_product(bp, e2)
    n2 = e2.order
    ident = [beta(b) * n2 + e2.neg(e.j(b)) for b in e.b.elements()]
    q_grp, proj = ref_quotient_by(prod.group, ident)
    j_new = build_hom(bp, q_grp, [proj(b * n2) for b in bp.elements()])
    bnd_total = build_hom(
        prod.group,
        e.e1,
        [e.xm.boundary(x) for _ in bp.elements() for x in e2.elements()],
    )
    bnd_new = ref_hom_from_cosets(proj, bnd_total)
    act = np.full((e.e1.order, q_grp.order), -1, dtype=np.int64)
    for g in e.e1.elements():
        for i in range(prod.group.order):
            b, x = divmod(i, n2)
            v = proj(beta.cod.xi(e.p(g), b) * n2 + e.xm.act(g, x))
            tgt = proj(i)
            if act[g, tgt] < 0:
                act[g, tgt] = v
            elif act[g, tgt] != v:
                raise ActionNotWellDefined(
                    "pushforward action is not constant on cosets"
                )
    xm_new = build_crossed_module(bnd_new, build_action(e.e1, q_grp, act))
    result = build_crossed_extension(j_new, xm_new, e.p)
    if result.module != beta.cod:
        raise ModuleMismatch("pushforward does not land in the target module")
    f2 = build_hom(e2, q_grp, [proj(x) for x in e2.elements()])
    lift = build_xext_morphism(e, result, beta, f2, identity_hom(e.e1))
    return result, lift


def ref_product_xext(e, ep):
    """Binary product in the category of crossed extensions of C.

    Returns the product and its pullback; the parent also returned the
    (x, x') -> x * |E2'| + x' dict of the middle.
    """
    if e.c != ep.c:
        raise BaseMismatch("product requires the same base group")
    pb = pullback(e.p, ep.p)
    pair_pos = {(pb.p1(i), pb.p2(i)): i for i in range(pb.group.order)}
    mid = direct_product(e.e2, ep.e2)
    n2p = ep.e2.order
    bnd = build_hom(
        mid.group,
        pb.group,
        [
            pair_pos[(e.xm.boundary(x), ep.xm.boundary(xp))]
            for x in e.e2.elements()
            for xp in ep.e2.elements()
        ],
    )
    act = np.zeros((pb.group.order, mid.group.order), dtype=np.int64)
    for i in range(pb.group.order):
        g, gp = pb.p1(i), pb.p2(i)
        for x in e.e2.elements():
            for xp in ep.e2.elements():
                act[i, x * n2p + xp] = e.xm.act(g, x) * n2p + ep.xm.act(gp, xp)
    xm = build_crossed_module(bnd, build_action(pb.group, mid.group, act))
    bprod = direct_product(e.b, ep.b)
    j = build_hom(
        bprod.group,
        mid.group,
        [
            e.j(b) * n2p + ep.j(bq)
            for b in e.b.elements()
            for bq in ep.b.elements()
        ],
    )
    p_new = compose(ep.p, pb.p2)
    result = build_crossed_extension(j, xm, p_new)
    expected = cmodule_product(e.module, ep.module).module
    if result.module != expected:
        raise ModuleMismatch("product module is not the module product")
    return result, pb


def ref_build_butterfly(dom, cod, f_group, kappa, iota, delta, gamma):
    if dom.c != cod.c:
        raise TypeMismatch("butterfly endpoints must share the base group")
    if (
        kappa.dom != dom.e2
        or iota.dom != cod.e2
        or kappa.cod != f_group
        or iota.cod != f_group
        or delta.dom != f_group
        or gamma.dom != f_group
        or delta.cod != dom.e1
        or gamma.cod != cod.e1
    ):
        raise TypeMismatch("butterfly arrows are not typed as in the diagram")

    if compose(delta, kappa) != dom.xm.boundary:
        raise ButterflyConditionViolation("i", "delta . kappa != boundary")
    if compose(gamma, iota) != cod.xm.boundary:
        raise ButterflyConditionViolation("i", "gamma . iota != boundary'")
    if compose(dom.p, delta) != compose(cod.p, gamma):
        raise ButterflyConditionViolation("i", "p . delta != p' . gamma")

    if not compose(gamma, kappa).is_zero():
        raise ButterflyConditionViolation("ii", "(kappa, gamma) is not a complex")
    if not is_short_exact(iota, delta):
        raise ButterflyConditionViolation(
            "ii", "(iota, delta) is not short exact"
        )

    for f in f_group.elements():
        df = delta(f)
        for x in dom.e2.elements():
            if kappa(dom.xm.act(df, x)) != f_group.conj(f, kappa(x)):
                raise ButterflyConditionViolation(
                    "iii", f"kappa not pre-crossed at (f, x) = ({f}, {x})"
                )
    for f in f_group.elements():
        gf = gamma(f)
        for xp in cod.e2.elements():
            if iota(cod.xm.act(gf, xp)) != f_group.conj(f, iota(xp)):
                raise ButterflyConditionViolation(
                    "iv", f"iota not pre-crossed at (f, x') = ({f}, {xp})"
                )
    return Butterfly(
        dom=dom, cod=cod, f_group=f_group,
        kappa=kappa, iota=iota, delta=delta, gamma=gamma,
    )


def ref_butterfly_beta(b):
    """The module morphism carried by a butterfly, through the cooperator."""
    try:
        coop = ref_cooperator(b.kappa, b.iota)
    except ImagesDoNotCommute as exc:
        raise CooperatorFails(str(exc)) from exc
    n_iota = b.iota.dom.order
    ker_elems = coop.kernel_elements()
    first = {}
    for idx in ker_elems:
        x, xp = divmod(idx, n_iota)
        if x in first:
            raise CooperatorFails("cooperator kernel is not a graph over B")
        first[x] = xp
    in_bp = {b.cod.j(v): v for v in b.cod.b.elements()}
    mapping = np.zeros(b.dom.b.order, dtype=np.int64)
    for bb in b.dom.b.elements():
        x = b.dom.j(bb)
        if x not in first or first[x] not in in_bp:
            raise CooperatorFails("kernel of the cooperator misses a B element")
        mapping[bb] = in_bp[first[x]]
    beta = cmodule_morphism(b.dom.module, b.cod.module, mapping)
    from bfly.actions import negate

    lhs = compose(b.kappa, b.dom.j)
    rhs = compose(compose(b.iota, b.cod.j), negate(beta).hom)
    require(lhs == rhs, "beta postcondition kappa.j = iota.j'.(-beta) failed")
    return beta


def ref_find_butterfly_iso(b1, b2):
    """First isomorphism of parallel butterflies, in deterministic order."""
    if b1.dom != b2.dom or b1.cod != b2.cod:
        raise TypeMismatch("butterfly isomorphisms require parallel butterflies")
    f1, f2 = b1.f_group, b2.f_group
    if f1.order != f2.order:
        return None
    n = f1.order
    sig = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)

    fibres: dict[tuple[int, int], list[int]] = {}
    for f in f2.elements():
        fibres.setdefault((b2.delta(f), b2.gamma(f)), []).append(f)

    def assign(a: int, b: int, trail: list[int]) -> bool:
        # set sig[a] = b and close under multiplication with known values
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            if sig[a] >= 0:
                if sig[a] != b:
                    return False
                continue
            if used[b]:
                return False
            if (b1.delta(a), b1.gamma(a)) != (b2.delta(b), b2.gamma(b)):
                return False
            sig[a] = b
            used[b] = True
            trail.append(a)
            for x in range(n):
                if sig[x] >= 0:
                    queue.append((f1.add(a, x), f2.add(b, sig[x])))
                    if x != a:
                        queue.append((f1.add(x, a), f2.add(sig[x], b)))
        return True

    trail0: list[int] = []
    ok = assign(0, 0, trail0)
    for x in b1.kappa.dom.elements():
        ok = ok and assign(b1.kappa(x), b2.kappa(x), trail0)
    for x in b1.iota.dom.elements():
        ok = ok and assign(b1.iota(x), b2.iota(x), trail0)
    if not ok:
        return None

    def search() -> bool:
        pending = [a for a in range(n) if sig[a] < 0]
        if not pending:
            return True
        a = pending[0]
        for b in fibres.get((b1.delta(a), b1.gamma(a)), []):
            if used[b]:
                continue
            trail: list[int] = []
            if assign(a, b, trail) and search():
                return True
            for t in trail:
                used[sig[t]] = False
                sig[t] = -1
        return False

    if not search():
        return None
    sigma = build_hom(f1, f2, sig)
    require(
        compose(sigma, b1.iota) == b2.iota
        and compose(sigma, b1.kappa) == b2.kappa
        and compose(b2.gamma, sigma) == b1.gamma
        and compose(b2.delta, sigma) == b1.delta
    )
    return ButterflyIso(dom=b1, cod=b2, sigma=sigma)


def ref_inverse_witness(e):
    """Flippable butterfly from E (x) E* to the unit, with F = E2 x| E1.

    ``data.middle_pair_index[(x1, x2)]`` of the parent reads
    ``data.middle.pair_index(x1, x2)`` here, and the tensor is the two-step
    ``ref_tensor_xext_with_data``.
    """
    star = inverse_xext(e)
    tensored, data, lift = ref_tensor_xext_with_data(e, star)
    unit = unit_xext(e.module)

    gpd = ref_associated_groupoid(e.xm)
    sd = gpd.total
    ng = e.e1.order
    pc = compose(e.p, gpd.c)
    k_sub = kernel(pc)
    pb = data.pb                          # E1 x_C E1, identical labeling
    pair_pos = {(pb.p1(i), pb.p2(i)): i for i in range(pb.group.order)}
    cd = build_hom(
        sd, pb.group,
        [pair_pos[(gpd.c(f), gpd.d(f))] for f in sd.elements()],
    )

    e2 = e.e2
    bnd = e.xm.boundary

    def phi_pair(x1: int, x2: int) -> int:
        # cooperator of the two kernel sections of the groupoid
        return e2.add(e2.neg(x1), e.xm.act(bnd(x1), x2)) * ng + bnd(x1)

    # transport the canonical tensor middle onto Ker(p . c)
    t2 = tensored.e2
    n_mid = e2.order * e2.order
    k_pos = {w: i for i, w in enumerate(k_sub.elements)}
    v2_map = np.full(t2.order, -1, dtype=np.int64)
    for i in range(e.b.order * n_mid):
        bb, pair = divmod(i, n_mid)
        x1, x2 = divmod(pair, e2.order)
        target = _ref_pushforward_class(tensored, lift, data, bb, x1, x2)
        w = sd.add(e2.neg(e.j(bb)) * ng + 0, phi_pair(x1, x2))
        widx = k_pos[w]
        if v2_map[target] < 0:
            v2_map[target] = widx
        elif v2_map[target] != widx:
            raise ActionNotWellDefined(
                "tensor-to-groupoid comparison not constant on cosets"
            )
    v2 = build_hom(t2, k_sub.group, v2_map)
    require(v2.is_injective() and v2.is_surjective())

    kappa = compose(k_sub.embedding, v2)
    iota = build_hom(
        e.b, sd, [e.j(bb) * ng + 0 for bb in e.b.elements()]
    )
    bf = ref_build_butterfly(
        tensored, unit, sd,
        kappa=kappa, iota=iota, delta=cd, gamma=pc,
    )
    require(is_flippable(bf))
    require(ref_butterfly_beta(bf).is_identity())
    return bf


def _ref_pushforward_class(tensored, lift, data, bb, x1, x2):
    """Class of (b, (x1, x2)) in the tensor middle via the lift and j."""
    pair = data.middle.pair_index(x1, x2)
    return tensored.e2.add(tensored.j(bb), lift.f2(pair))


def ref_vector(group, f):
    """CohomologyGroup._vector before the gather: one cochain, one tuple at a time."""
    tuples = _nonzero_tuples(group.module.base.order, group.degree)
    k = max(1, len(group._dec.factors))
    v = np.zeros(len(tuples) * k, dtype=object)
    for i, t in enumerate(tuples):
        v[i * k: (i + 1) * k] = group._dec.to_vec[int(f.values[t])][:k]
    return v


def ref_cochain(group, v):
    """CohomologyGroup._cochain before the gather."""
    m = group.module
    nc = m.base.order
    kk = len(group._dec.factors)
    k = max(1, kk)
    out = np.zeros((nc,) * group.degree, dtype=np.int64)
    for i, t in enumerate(_nonzero_tuples(nc, group.degree)):
        coords = tuple(
            int(v[i * k + j]) % group._dec.factors[j] for j in range(kk)
        )
        out[t] = group._dec.from_vec[coords]
    return Cochain(group.degree, m, out)


def ref_cocycles(module, degree: int) -> np.ndarray:
    """Every normalized cocycle, as a row of _candidate_matrix.

    Candidates are filtered one coboundary column at a time, so no
    candidates x targets matrix is ever built.
    """
    v = _candidate_matrix(module, degree)
    for col in range(module.base.order ** (degree + 1)):
        keep = _coboundary_values(module, degree, v, [col])[:, 0] == 0
        if not keep.all():
            v = v[keep]
    return v


def ref_pushforward_equivariant(m, cat, mods):
    """verify's pushforward-equivariant check before the stacks: one class at a time."""
    from bfly.actions import all_module_morphisms
    from bfly.bridges import class_of_crossed_extension, map_cochain
    from bfly.butterflies import pushforward_xext
    from bfly.cohomology import cohomology
    from bfly.errors import require

    n = 0
    for name2, m2 in mods:
        if m2.base != m.base or m2 == m:
            continue
        for beta in all_module_morphisms(m, m2)[:2]:
            for ename, e in cat[:3]:
                result, _ = pushforward_xext(e, beta)
                lhs = class_of_crossed_extension(result)
                f = class_of_crossed_extension(e).representative
                rhs = cohomology(beta.cod, 3).classify(map_cochain(beta, f))
                require(lhs == rhs, f"{ename} along {name2}")
                n += 1
        break
    return f"{n} pushforwards"


# --- quotients of fibre products in two steps: the whole group, then quotient_by


def ref_tensor_xext_with_data(e, ep):
    """The product of crossed extensions, then its pushforward along the codiagonal."""
    if e.module != ep.module:
        raise ModuleMismatch("tensor requires the same kernel module")
    data = product_xext_with_data(e, ep)
    prod_module = cmodule_product(e.module, ep.module)
    codiag = pair_codiagonal(prod_module, e.module)
    result, lift = pushforward_xext(data.xext, codiag)
    return result, data, lift


def ref_baer_quotient(e1, e2):
    """The pullback E1 x_C E2, its quotient map by the antidiagonal copy of
    B, and the quotient as an extension of C by B."""
    if e1.module != e2.module:
        raise ModuleMismatch("Baer sum requires the same kernel module")
    k1, g1 = e1.kernel_arrow, e1.quotient_arrow
    k2, g2 = e2.kernel_arrow, e2.quotient_arrow
    pb = pullback(g1, g2)
    q_grp, proj = ref_quotient_by(pb.group, pb.pair_index(k1.map, k2.cod.inv[k2.map]))
    kernel_arrow = _hom(k1.dom, q_grp, proj.map[pb.pair_index(k1.map, 0)])
    quotient_arrow = ref_hom_from_cosets(proj, compose(g1, pb.p1))
    return pb, proj, _extension(kernel_arrow, quotient_arrow, e1.module)


def ref_composition_square(e, ep):
    """The square of the composite of two loops, from the two-step Baer quotient."""
    pb, proj, target = ref_baer_quotient(e, ep)
    pm = cmodule_product(e.module, ep.module)
    kappa = _hom(pm.module.coeff, pb.group,
                 pb.pair_index(e.kernel_arrow.map[:, None], ep.kernel_arrow.map).ravel())
    dom_ext = _extension(kappa, compose(e.quotient_arrow, pb.p1), pm.module)
    beta = pair_codiagonal(pm, e.module)
    return ExtensionLift(source=dom_ext, beta=beta, mid=proj, target=target)


def ref_pushforward_extension(ext, beta):
    """Cocartesian lift of an extension: B' x| E, E acting through gamma,
    modulo {(beta b, -kappa b)}."""
    if beta.dom != ext.module:
        raise ModuleMismatch("beta must start at the extension's module")
    kappa, gamma = ext.kernel_arrow, ext.quotient_arrow
    e_grp = ext.middle
    sd = semidirect_product(GroupAction(e_grp, beta.cod.coeff, beta.cod.action.act[gamma.map]))
    q_grp, proj = ref_quotient_by(sd.group, beta.hom.map * e_grp.order + e_grp.inv[kappa.map])
    kernel_arrow = compose(proj, sd.inj_normal)
    quotient_arrow = ref_hom_from_cosets(proj, compose(gamma, sd.retraction))
    target = _extension(kernel_arrow, quotient_arrow, beta.cod)
    mid = compose(proj, sd.inj_actor)
    return ExtensionLift(source=ext, beta=beta, mid=mid, target=target)


def ref_compose_butterflies(second, first):
    """second . first, via the pullback of the legs over the shared middle."""
    if first.cod != second.dom:
        raise TypeMismatch("butterflies are not composable")
    pb = pullback(first.gamma, second.delta)
    n_elems = pb.pair_index(first.iota.map, second.kappa.map)
    if not is_normal(pb.group, n_elems):
        raise TypeMismatch("identified middle image is not normal")
    q_grp, proj = ref_quotient_by(pb.group, n_elems)
    kappa = _hom(first.kappa.dom, q_grp, proj.map[pb.pair_index(first.kappa.map, 0)])
    iota = _hom(second.iota.dom, q_grp, proj.map[pb.pair_index(0, second.iota.map)])
    delta = ref_hom_from_cosets(proj, compose(first.delta, pb.p1))
    gamma = ref_hom_from_cosets(proj, compose(second.gamma, pb.p2))
    return _butterfly(first.dom, second.cod, q_grp, kappa, iota, delta, gamma)
