"""Table-scan kernels for validating Cayley tables, homomorphisms and actions.

Each kernel returns the first violating witness it finds, or None, and is
deterministic.  The associativity check is Light's test (Clifford & Preston,
*The Algebraic Theory of Semigroups* I, 1961, §1.2): a finite magma is
associative iff (x*s)*y == x*(s*y) for all x, y and every s in a set S that
generates it as a magma.  That costs O(n^2 |S|) instead of O(n^3); for a
group |S| <= log2 n.  The homomorphism and action scans are O(n^2) per map
and O(|G|^2 |X|) numpy comparisons.
"""

import numpy as np

_CHUNK_CELLS = 1 << 18  # bound on the entries of one comparison block


def grow_closure(table: np.ndarray, closed: np.ndarray, new) -> np.ndarray:
    """Close the boolean mask ``closed`` under the table's operation, in place.

    ``new`` lists the elements that join the mask; the mask without them
    must already be closed.  Only the operation is used (no identity or
    inverses), so this is valid before the table is known to be a group; in
    a finite group the closure of a nonempty set is the subgroup it
    generates.  Each element joins once and is multiplied by the closure on
    both sides, so growing a mask to all n elements costs O(n^2).
    """
    new = np.asarray(new, dtype=np.int64)
    closed[new] = True
    while new.size:
        members = np.flatnonzero(closed)
        fresh = np.zeros(len(closed), dtype=bool)
        fresh[table[np.ix_(new, members)]] = True
        fresh[table[np.ix_(members, new)]] = True
        fresh &= ~closed
        closed |= fresh
        new = np.flatnonzero(fresh)
    return closed


def _magma_generators(table: np.ndarray) -> list[int]:
    """Greedy generating set of the magma: least element outside the closure."""
    closed = np.zeros(table.shape[0], dtype=bool)
    gens: list[int] = []
    while not closed.all():
        gens.append(int(np.argmin(closed)))
        grow_closure(table, closed, gens[-1:])
    return gens


def assoc_violation(table: np.ndarray):
    """Some (a, b, c) with (a+b)+c != a+(b+c), or None; b is a generator."""
    n = table.shape[0]
    table = table.astype(np.min_scalar_type(n - 1))    # narrow entries gather faster
    gens = np.asarray(_magma_generators(table))
    step = max(1, _CHUNK_CELLS // (n * n))
    for lo in range(0, len(gens), step):
        s = gens[lo:lo + step]
        left = table[table[:, s]]           # (n, |s|, n): (x+s)+y
        right = table[:, table[s]]          # (n, |s|, n): x+(s+y)
        bad = left != right
        if bad.any():
            x, k, y = np.argwhere(bad)[0]
            return int(x), int(s[k]), int(y)
    return None


def hom_violation(dom_table: np.ndarray, cod_table: np.ndarray, m: np.ndarray):
    """First (a, b) with m[a+b] != m[a]+m[b], or None."""
    witness = homs_violation(dom_table, cod_table, m[None])
    return None if witness is None else witness[1:]


def homs_violation(dom_table: np.ndarray, cod_table: np.ndarray, maps: np.ndarray):
    """First (row, a, b) with maps[row, a+b] != maps[row, a]+maps[row, b], or None."""
    n = dom_table.shape[0]
    step = max(1, _CHUNK_CELLS // (n * n))
    for lo in range(0, len(maps), step):
        m = maps[lo:lo + step]
        bad = m[:, dom_table] != cod_table[m[:, :, None], m[:, None, :]]
        if bad.any():
            row, a, b = np.argwhere(bad)[0]
            return lo + int(row), int(a), int(b)
    return None


def action_compat_violation(actor_table: np.ndarray, act: np.ndarray):
    """First (g, h, x) with (g+h)*x != g*(h*x), or None."""
    for g in range(actor_table.shape[0]):
        lhs = act[actor_table[g], :]           # (ng, nx): (g+h)*x
        rhs = act[g][act]                      # (ng, nx): g*(h*x)
        bad = lhs != rhs
        if bad.any():
            h, x = np.argwhere(bad)[0]
            return g, int(h), int(x)
    return None
