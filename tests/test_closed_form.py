"""A closed-form second opinion on cohomology over abelian bases.

For C = Z_a1 x ... x Z_ak acting trivially on B, the integral homology of
C follows from H_n(Z_a) (Z for n = 0, Z_a for n odd, 0 for n even > 0)
and the Kunneth formula, which splits:

    H_n(X x Y) = sum_{i+j=n} H_i(X) (x) H_j(Y) + sum_{i+j=n-1} Tor(H_i(X), H_j(Y)),

and the universal coefficient theorem gives
H^n(C; B) = Hom(H_n(C), B) + Ext(H_{n-1}(C), B) (Hatcher, *Algebraic
Topology*, 3.1 and 3.B; Brown, *Cohomology of Groups*, ch. V).  None of
this uses bfly's linear algebra; only the groups and the answer under test
come from bfly.
"""

import itertools
from math import gcd

import numpy as np
import pytest

from bfly.actions import trivial_module
from bfly.cohomology import cohomology
from bfly.groups import build_group, direct_product

# every abelian group of order at most 8, by its cyclic factors
ABELIAN = [(), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2)]


def _group(factors):
    g = build_group([[0]])
    for n in factors:
        r = np.arange(n)
        g = direct_product(g, build_group(np.add.outer(r, r) % n)).group
    return g


# a finitely generated abelian group as (rank, [orders of its torsion factors])
def _tensor(a, b):
    (ra, ta), (rb, tb) = a, b
    return ra * rb, ta * rb + tb * ra + [gcd(s, t) for s in ta for t in tb]


def _tor(a, b):
    return 0, [gcd(s, t) for s in a[1] for t in b[1]]


def _sum(groups):
    return sum(r for r, _ in groups), [t for _, ts in groups for t in ts]


def _homology(factors, top):
    """H_0 .. H_top of C = the product of the cyclic groups ``factors``."""
    h = [(1, [])] + [(0, [])] * top                     # the trivial group
    for a in factors:
        cyclic = [(1, [])] + [(0, [a] if n % 2 else []) for n in range(1, top + 1)]
        h = [_sum([_tensor(h[i], cyclic[n - i]) for i in range(n + 1)]
                  + [_tor(h[i], cyclic[n - 1 - i]) for i in range(n)])
             for n in range(top + 1)]
    return h


def _closed_form(c_factors, b_factors, degree):
    """Orders of cyclic factors of H^degree(C; B) with C acting trivially."""
    h = _homology(c_factors, degree)
    rank, tors = h[degree]
    hom = list(b_factors) * rank + [gcd(t, m) for t in tors for m in b_factors]
    ext = [gcd(t, m) for t in h[degree - 1][1] for m in b_factors]
    return hom + ext


def _elementary_divisors(orders):
    out = []
    for n in orders:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n, q = n // p, q * p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def test_closed_form_formula_on_known_groups():
    assert _closed_form((2, 2), (2,), 2) == [2, 2, 2]
    assert _closed_form((4,), (2,), 2) == [2]
    assert _closed_form((2, 2), (2,), 1) == [2, 2]
    assert _homology((2, 2, 2), 2)[2] == (0, [2, 2, 2])


def test_cohomology_matches_kunneth_and_universal_coefficients():
    """Every abelian C of order <= 8 acting trivially on every B of order
    <= 8, in degrees 1 and 2: the same elementary divisors."""
    groups = {f: _group(f) for f in ABELIAN}
    n = 0
    for c, b, degree in itertools.product(ABELIAN, ABELIAN, (1, 2)):
        got = cohomology(trivial_module(groups[c], groups[b]), degree).factors
        want = _closed_form(c, b, degree)
        assert _elementary_divisors(got) == _elementary_divisors(want), (c, b, degree)
        n += 1
    assert n == 242


@pytest.mark.parametrize("c, rank", [((8,), 1), ((2, 4), 4), ((2, 2, 2), 10)])
def test_degree_three_over_the_abelian_bases_of_order_8(c, rank):
    """H^3 with trivial Z2 coefficients over Z8, Z2 x Z4 and Z2^3 is
    Z2^rank, as Kunneth and universal coefficients say."""
    want = _closed_form(c, (2,), 3)
    assert _elementary_divisors(want) == [2] * rank
    got = cohomology(trivial_module(_group(c), _group((2,))), 3).factors
    assert _elementary_divisors(got) == [2] * rank
