"""Smith normal form and exact integer linear algebra."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfly import snf
from bfly.snf import (
    SmithDecomposition,
    _WORD_BOUND,
    _grown,
    _integers,
    column_lattice_basis,
    integer_kernel,
    matmul,
    smith_normal_form,
    solve_integer,
)

matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def _det_is_unit(u: np.ndarray) -> bool:
    return round(abs(np.linalg.det(u.astype(float)))) == 1


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_snf_decomposition_properties(rows):
    a = np.array(rows, dtype=object)
    dec = smith_normal_form(a)
    assert np.array_equal(dec.u @ a @ dec.v, dec.s)
    assert _det_is_unit(dec.u) and _det_is_unit(dec.v)
    assert np.array_equal(dec.u @ dec.uinv, np.eye(a.shape[0], dtype=object))
    assert np.array_equal(dec.v @ dec.vinv, np.eye(a.shape[1], dtype=object))
    d = dec.invariant_factors
    assert all(x >= 0 for x in d)
    for x, y in zip(d, d[1:]):
        if x:
            assert y % x == 0
        else:
            assert y == 0
    # off-diagonal entries vanish
    s = dec.s
    for i in range(s.shape[0]):
        for j in range(s.shape[1]):
            if i != j:
                assert s[i, j] == 0


@settings(max_examples=60, deadline=None)
@given(matrices, st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_solve_integer_roundtrip(rows, xs):
    a = np.array(rows, dtype=object)
    x = np.array(xs[: a.shape[1]], dtype=object)
    b = a @ x
    sol = solve_integer(a, b)
    assert sol is not None
    assert np.array_equal(a @ sol, b)


def test_solve_integer_detects_unsolvable():
    a = np.array([[2]], dtype=object)
    assert solve_integer(a, np.array([1], dtype=object)) is None
    assert solve_integer(a, np.array([4], dtype=object)) is not None


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_integer_kernel_is_annihilated(rows):
    a = np.array(rows, dtype=object)
    k = integer_kernel(a)
    if k.shape[1]:
        assert not np.any(a @ k)


def test_known_invariant_factors():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    dec = smith_normal_form(a)
    assert dec.invariant_factors == (2, 2, 156)


def test_column_lattice_membership():
    a = np.array([[2, 0], [0, 3]], dtype=object)
    assert solve_integer(a, np.array([4, 9], dtype=object)) is not None
    assert solve_integer(a, np.array([1, 0], dtype=object)) is None
    basis, _ = column_lattice_basis(a)
    assert basis.shape == (2, 2)


# --- bit-identity with the cell-by-cell elimination -------------------------


def reference_snf(a) -> SmithDecomposition:
    """The elimination as one Python loop over cells, before vectorising."""
    s = _integers(a).astype(object)
    m, n = s.shape
    u = np.eye(m, dtype=object)
    uinv = np.eye(m, dtype=object)
    v = np.eye(n, dtype=object)
    vinv = np.eye(n, dtype=object)

    def row_swap(i, j):
        s[[i, j], :] = s[[j, i], :]
        u[[i, j], :] = u[[j, i], :]
        uinv[:, [i, j]] = uinv[:, [j, i]]

    def col_swap(i, j):
        s[:, [i, j]] = s[:, [j, i]]
        v[:, [i, j]] = v[:, [j, i]]
        vinv[[i, j], :] = vinv[[j, i], :]

    def row_add(i, j, q):
        # row_i += q * row_j
        s[i, :] += q * s[j, :]
        u[i, :] += q * u[j, :]
        uinv[:, j] -= q * uinv[:, i]

    def col_add(i, j, q):
        # col_i += q * col_j
        s[:, i] += q * s[:, j]
        v[:, i] += q * v[:, j]
        vinv[j, :] -= q * vinv[i, :]

    def row_negate(i):
        s[i, :] = -s[i, :]
        u[i, :] = -u[i, :]
        uinv[:, i] = -uinv[:, i]

    t = 0
    while t < min(m, n):
        # find a pivot of minimal absolute value in the remaining block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = abs(s[i, j])
                if val and (best is None or val < best):
                    best, pivot = val, (i, j)
        if pivot is None:
            break
        i, j = pivot
        row_swap(t, i)
        col_swap(t, j)
        while True:
            done = True
            for i in range(t + 1, m):
                if s[i, t] % s[t, t] != 0:
                    done = False
                q = -(s[i, t] // s[t, t])
                if q:
                    row_add(i, t, q)
            for j in range(t + 1, n):
                if s[t, j] % s[t, t] != 0:
                    done = False
                q = -(s[t, j] // s[t, t])
                if q:
                    col_add(j, t, q)
            cleared = all(s[i, t] == 0 for i in range(t + 1, m)) and all(
                s[t, j] == 0 for j in range(t + 1, n)
            )
            if cleared and done:
                # enforce divisibility against the rest of the block
                offender = None
                for i in range(t + 1, m):
                    for j in range(t + 1, n):
                        if s[i, j] % s[t, t] != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                row_add(t, offender, 1)
                continue
            if cleared:
                continue
            # pivot changed size; re-select minimal entry in the cross
            best_i, best_j, best_v = t, t, abs(s[t, t])
            for i in range(t, m):
                if s[i, t] and abs(s[i, t]) < best_v:
                    best_i, best_j, best_v = i, t, abs(s[i, t])
            for j in range(t, n):
                if s[t, j] and abs(s[t, j]) < best_v:
                    best_i, best_j, best_v = t, j, abs(s[t, j])
            row_swap(t, best_i)
            col_swap(t, best_j)
        if s[t, t] < 0:
            row_negate(t)
        t += 1

    return SmithDecomposition(u=u, s=s, v=v, uinv=uinv, vinv=vinv)


def _matrices(entries, lo=0, hi=6):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).flatmap(
        lambda mn: st.lists(
            st.lists(entries, min_size=mn[1], max_size=mn[1]),
            min_size=mn[0],
            max_size=mn[0],
        ).map(lambda rows: np.array(rows, dtype=object).reshape(mn))
    )


_near_narrow = st.sampled_from([0, 1, -1, 2, 2**31 - 1, -(2**31 - 1), 2**30 + 7, 3 * 2**29])

bit_identity_inputs = st.one_of(
    _matrices(st.integers(-9, 9)),
    _matrices(st.integers(-(10**6), 10**6)),
    # entries past 2**62 and past 2**100 start as Python ints
    _matrices(st.one_of(st.integers(-9, 9), st.integers(-(2**64), 2**64)), hi=4),
    _matrices(st.one_of(st.integers(-9, 9), st.integers(-(2**101), 2**101)), hi=4),
    # int64 entries whose elimination outgrows machine words part-way
    _matrices(st.one_of(st.integers(-3, 3), _near_narrow), lo=2, hi=5),
    _matrices(st.just(0)),
)


def _assert_same(
    dec: SmithDecomposition, ref: SmithDecomposition, track: str = "u v uinv vinv"
) -> None:
    """S and the tracked transforms bit for bit; the others are None."""
    for name in ("u", "s", "v", "uinv", "vinv"):
        got, want = getattr(dec, name), getattr(ref, name)
        if name != "s" and name not in track.split():
            assert got is None, name
            continue
        assert got.dtype == object and got.shape == want.shape, name
        assert np.array_equal(got, want), name
        assert all(type(x) is int for x in got.flat), name


@settings(max_examples=400, deadline=None)
@given(bit_identity_inputs)
def test_snf_matches_cell_by_cell_elimination(a):
    _assert_same(smith_normal_form(a), reference_snf(a))


# the subsets the library asks for, each transform alone, and S alone
PARTIAL_TRACKS = ["v", "uinv", "u v", "u uinv", "u", "vinv", ""]


def _assert_tracked(a, ref: SmithDecomposition) -> None:
    for track in PARTIAL_TRACKS:
        _assert_same(smith_normal_form(a, track), ref, track)


@settings(max_examples=200, deadline=None)
@given(bit_identity_inputs)
def test_partial_tracking_matches_cell_by_cell_elimination(a):
    _assert_tracked(a, reference_snf(a))


def test_divisibility_step_at_a_non_unit_pivot():
    """diag(2, 3): the cross is clear at pivot 2, but 3 is no multiple of it,
    so row 0 takes row 1 and the pivot shrinks to 1."""
    a = np.array([[2, 0], [0, 3]], dtype=object)
    ref = reference_snf(a)
    assert ref.invariant_factors == (1, 6)
    _assert_same(smith_normal_form(a), ref)
    _assert_tracked(a, ref)


def test_partially_tracked_call_widens_part_way():
    """The same matrix as below; each partial call widens mid-run."""
    a = np.array(
        [[2**31 - 1, 2**30 + 7, 3], [5, 2**31 - 3, 2**29], [2**30, 11, 2**31 - 5]],
        dtype=object,
    )
    ref = reference_snf(a)
    assert ref.s[2, 2] >= 2**62
    _assert_tracked(a, ref)


def test_snf_widens_part_way_and_stays_exact():
    """Entries below 2**31 start in int64; the determinant is near 2**92."""
    a = np.array(
        [[2**31 - 1, 2**30 + 7, 3], [5, 2**31 - 3, 2**29], [2**30, 11, 2**31 - 5]],
        dtype=object,
    )
    dec = smith_normal_form(a)
    _assert_same(dec, reference_snf(a))
    assert np.array_equal(dec.u @ a @ dec.v, dec.s)
    assert dec.s[2, 2] >= 2**62


def test_word_bound_counts_every_term_of_a_product():
    """A matrix-vector product adds len(q) terms into each entry, and the
    bound that S and U share as [S | U] counts U's growth too."""
    assert _grown(2**30, 2**31, 1) < _WORD_BOUND
    assert _grown(2**30, 2**31, 4) >= _WORD_BOUND
    assert _grown(5, 2, 3) == 5 + 3 * 2 * 5
    # the unit lower bidiagonal matrix with n below the diagonal: S stays
    # the identity, entries below 2**31, while U's corner reaches -n**3
    n = 2**31 - 1
    a = np.eye(4, dtype=object) + np.diag([n] * 3, -1).astype(object)
    ref = reference_snf(a)
    assert np.array_equal(ref.s, np.eye(4, dtype=object))
    assert ref.u[3, 0] == -(n**3) and -(n**3) < -_WORD_BOUND
    _assert_same(smith_normal_form(a), ref)
    _assert_tracked(a, ref)


@st.composite
def stacked_moduli(draw):
    """[A | m I], the shape cohomology() factors: the unit entries of A
    give unit pivots first, then the moduli give pivots of size m."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    mod = draw(st.sampled_from([2, 3, 4, 6, 8, 9]))
    a = draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    a = np.array(a, dtype=object).reshape(rows, cols)
    return np.concatenate([a, mod * np.eye(rows, dtype=object)], axis=1)


@settings(max_examples=150, deadline=None)
@given(stacked_moduli())
def test_stacked_moduli_match_cell_by_cell_elimination(a):
    ref = reference_snf(a)
    _assert_same(smith_normal_form(a), ref)
    _assert_tracked(a, ref)


@st.composite
def no_unit_in_row_zero(draw):
    """A matrix with an entry of size 1 below row 0 and none in row 0."""
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(1, 5))
    non_units = st.sampled_from([0, 2, -2, 3, -3, 4, 6, -9])
    first = draw(st.lists(non_units, min_size=cols, max_size=cols))
    rest = draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=rows - 1,
            max_size=rows - 1,
        )
    )
    a = np.array([first] + rest, dtype=object)
    a[draw(st.integers(1, rows - 1)), draw(st.integers(0, cols - 1))] = draw(
        st.sampled_from([1, -1])
    )
    return a


@settings(max_examples=150, deadline=None)
@given(no_unit_in_row_zero())
def test_pivot_search_falls_back_to_the_block_scan(a):
    """Row 0 has no entry of size g = 1, so the first pivot search scans
    the whole matrix, and the pivot is the row-major first unit below."""
    scanned = []
    smallest = snf._smallest

    def spy(block, g):
        scanned.append(block.shape)
        return smallest(block, g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(snf, "_smallest", spy)
        dec = smith_normal_form(a)
    assert scanned[0] == a.shape
    ref = reference_snf(a)
    _assert_same(dec, ref)
    _assert_tracked(a, ref)


@st.composite
def tall_with_a_low_unit(draw):
    """Up to 40 rows of even entries but one unit, so the search for an
    entry of size 1 walks several bands of rows before it finds it."""
    rows, cols = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    a = 2 * np.array(
        draw(st.lists(st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols)),
        dtype=object,
    ).reshape(rows, cols)
    a[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = draw(
        st.sampled_from([1, -1])
    )
    return a


@settings(max_examples=100, deadline=None)
@given(tall_with_a_low_unit())
def test_banded_pivot_search_matches_cell_by_cell_elimination(a):
    assert snf._smallest(a, 1) == int(np.argmax(np.abs(a.astype(np.int64)).ravel() == 1))
    _assert_same(smith_normal_form(a), reference_snf(a))


def _integer_dtype(a: np.ndarray) -> np.ndarray:
    """a in int64 if it fits, else in uint64 if that fits, else a itself."""
    for dtype in (np.int64, np.uint64):
        info = np.iinfo(dtype)
        if all(info.min <= x <= info.max for x in a.flat):
            return a.astype(dtype)
    return a


@settings(max_examples=150, deadline=None)
@given(st.one_of(bit_identity_inputs, stacked_moduli()))
def test_integer_input_gives_the_object_input_decomposition(a):
    """An integer array gives the decomposition of the same entries as
    Python ints, bit for bit, and the outputs are Python ints."""
    words = _integer_dtype(a)
    ref = smith_normal_form(a)
    _assert_same(smith_normal_form(words), ref)
    _assert_same(smith_normal_form(words, "v"), ref, "v")


@settings(max_examples=150, deadline=None)
@given(st.one_of(bit_identity_inputs, stacked_moduli()), st.data())
def test_kernel_restricted_to_its_first_rows_is_the_full_kernel_cut(a, data):
    """Carrying only the first rows of V gives those rows of the whole V,
    and the kernel's first rows, bit for bit."""
    rows = data.draw(st.integers(0, a.shape[1]))
    whole, cut = smith_normal_form(a, "v"), smith_normal_form(a, "v", rows)
    assert cut.v.dtype == object and cut.v.shape == (rows, a.shape[1])
    assert np.array_equal(cut.v, whole.v[:rows])
    assert all(type(x) is int for x in cut.v.flat)
    assert np.array_equal(cut.s, whole.s)
    full = integer_kernel(a)
    got = integer_kernel(a, rows)
    assert got.shape == (rows, full.shape[1]) and np.array_equal(got, full[:rows])


_near_words = st.sampled_from(
    [0, 1, -1, 3, 2**31 - 1, -(2**31), 2**31 + 5, 2**61, 2**62 - 1, -(2**62), 2**63 - 1]
)


@st.composite
def products(draw):
    """Integer matrices A (m x k) and B (k x n), some entries near 2**31 and 2**62."""
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    entries = st.one_of(st.integers(-9, 9), _near_words)

    def matrix(rows, cols):
        cells = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
        return np.array(cells, dtype=object).reshape(rows, cols)

    return matrix(m, k), matrix(k, n)


@settings(max_examples=300, deadline=None)
@given(products())
def test_matmul_equals_the_python_int_product(ab):
    """In int64 only where the bound proves the product fits; entries near
    2**31 and 2**62 force the Python-int product, as object input past
    int64 does."""
    a, b = ab
    want = a.astype(object) @ b.astype(object)
    for x, y in ((a, b), (_integer_dtype(a), _integer_dtype(b))):
        got = matmul(x, y)
        assert got.shape == want.shape and np.array_equal(got, want)
        big = max(snf._absmax(a), 1) * max(snf._absmax(b), 1) * max(a.shape[1], 1)
        assert got.dtype == (np.int64 if big < _WORD_BOUND else object)


def test_matmul_widens_where_one_term_or_their_sum_passes_the_bound():
    a = np.array([[2**31, 2**31]], dtype=np.int64)
    b = np.array([[2**30], [2**30]], dtype=np.int64)
    assert matmul(a[:, :1], b[:1]).dtype == np.int64      # 2**61
    got = matmul(a, b)                                      # two terms of 2**61
    assert got.dtype == object and got[0, 0] == 2**62
    huge = np.array([[2**63]], dtype=np.uint64)
    assert matmul(huge, np.array([[2]]))[0, 0] == 2**64


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_column_lattice_basis_comes_factored(rows):
    """The basis spans the columns of A, and U @ B @ V = S factors it."""
    a = np.array(rows, dtype=object)
    basis, dec = column_lattice_basis(a)
    assert np.array_equal(dec.u @ basis @ dec.v, dec.s)
    assert np.array_equal(dec.u @ dec.uinv, np.eye(a.shape[0], dtype=object))
    assert np.array_equal(dec.v @ dec.vinv, np.eye(basis.shape[1], dtype=object))
    assert solve_integer(basis, a, dec=dec) is not None
    assert solve_integer(a, basis) is not None


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (3, 4)])
def test_snf_of_empty_and_zero_matrices(shape):
    a = np.zeros(shape, dtype=object)
    _assert_same(smith_normal_form(a), reference_snf(a))


def test_classify_matches_solving_against_the_adapted_basis():
    """classify reuses the factorisations made by cohomology(); the
    coordinates must equal a fresh solve against the adapted basis."""
    from bfly.bridges import cocycle_of_crossed_extension, cocycle_of_extension
    from bfly.catalog import h2_catalog, h3_catalog, standard_modules
    from bfly.cohomology import cohomology

    def direct(group, f):
        y = solve_integer(group._basis, group._vector(f.values.reshape(1, -1))[:, 0])
        return tuple(int(y[i]) % s for i, s in enumerate(group._sdiag) if s > 1)

    modules = standard_modules()
    for _, m in modules:
        h2, h3 = cohomology(m, 2), cohomology(m, 3)
        cocycles = [(h2, cocycle_of_extension(e)) for e in h2_catalog(m)]
        cocycles += [
            (h3, cocycle_of_crossed_extension(e)) for _, e in h3_catalog(m, modules)
        ]
        cocycles += [
            (g, g.representative(coords))
            for g in (h2, h3)
            for coords in itertools.product(*[range(n) for n in g.factors])
        ]
        for group, f in cocycles:
            assert group.classify(f).coords == direct(group, f)


def test_cohomology_pipeline_matches_reference_elimination(monkeypatch, empty_class_memo):
    """Every group cohomology() makes for the standard modules, in degrees
    1..3, is the same when the cell-by-cell elimination replaces the SNF."""
    import bfly.cohomology as coh
    import bfly.snf as snf
    from bfly.catalog import standard_modules

    modules = [m for _, m in standard_modules()]

    def groups():
        monkeypatch.setattr(coh, "_COHOM_CACHE", {})
        return [coh.cohomology(m, d) for m in modules for d in (1, 2, 3)]

    fast = groups()

    def reference(a, track="", v_rows=None, /):
        dec = reference_snf(a)
        return dataclasses.replace(dec, v=dec.v[:v_rows])

    monkeypatch.setattr(snf, "smith_normal_form", reference)
    monkeypatch.setattr(coh, "smith_normal_form", reference)
    slow = groups()
    assert len(fast) == len(slow) == 66
    for got, want in zip(fast, slow):
        assert got is not want
        assert got.factors == want.factors and got._sdiag == want._sdiag
        assert np.array_equal(got._basis, want._basis)
        for name in ("u", "s", "v"):
            assert np.array_equal(getattr(got._basis_snf, name),
                                  getattr(want._basis_snf, name)), name


def test_cohomology_eliminates_three_matrices_per_group(monkeypatch, empty_class_memo):
    """The kernel of [d | moduli], the cocycle lattice and the coboundaries
    in its basis; the lattice's elimination also factors the basis, the
    kernel's carries only the rows of V of the unknowns, and a cached group
    eliminates nothing."""
    import bfly.cohomology as coh
    from bfly.catalog import standard_modules

    tracks = []
    real = snf.smith_normal_form

    def spy(a, track="u v uinv vinv", v_rows=None, /):
        tracks.append((track, v_rows))
        return real(a, track, v_rows)

    monkeypatch.setattr(snf, "smith_normal_form", spy)
    monkeypatch.setattr(coh, "smith_normal_form", spy)
    monkeypatch.setattr(coh, "_COHOM_CACHE", {})
    for _, m in standard_modules():
        for d in (1, 2, 3):
            start = len(tracks)
            unknowns = coh.cohomology(m, d)._basis.shape[0]
            coh.cohomology(m, d)
            assert tracks[start:] == [("v", unknowns), ("u uinv", None), ("u uinv", None)]
