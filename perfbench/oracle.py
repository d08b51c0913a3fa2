"""Cohomology orders computed apart from bfly, to check its outputs.

A module is given by plain tables: the base group C, the coefficient
group B = Z/m (its standard table), and the action act[c][x].  Nothing
here imports bfly.

* Cyclic C = <t>, via the periodic resolution with N = 1 + t + ... :
  |H^1| = |H^3| = |ker N| / |(t-1)B|,  |H^2| = |B^C| / |NB|,  |Z^1| = |ker N|.
* C = K4 acting trivially, via universal coefficients with
  H_1 = Z2^2, H_2 = Z2, H_3 = Z2^3.
* Any other module, by counting normalized cocycles exactly:
  |H^n| = |Z^n| |Z^(n-1)| / |C^(n-1)|, with each |Z^k| the kernel size of
  the bar coboundary over Z/p^k, found by elimination in the local ring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class Module:
    ctab: tuple[tuple[int, ...], ...]   # base group table, identity 0
    m: int                              # |B|, B = Z/m
    units: tuple[int, ...]              # c acts on B as x -> units[c] * x


def module_from_tables(base_table, coeff_table, act) -> Module:
    """Read a C-module from tables; B must be the standard Z/m table."""
    m = len(coeff_table)
    for a in range(m):
        for b in range(m):
            if int(coeff_table[a][b]) != (a + b) % m:
                raise ValueError("coefficient table is not the standard Z/m")
    units = tuple(int(row[1 % m]) for row in act)
    for c, row in enumerate(act):
        if [int(v) for v in row] != [(units[c] * x) % m for x in range(m)]:
            raise ValueError(f"element {c} does not act by multiplication")
    ctab = tuple(tuple(int(v) for v in row) for row in base_table)
    return Module(ctab, m, units)


def element_order(ctab, a: int) -> int:
    k, acc = 1, a
    while acc != 0:
        acc, k = ctab[acc][a], k + 1
    return k


def _generator(ctab) -> int | None:
    n = len(ctab)
    return next((a for a in range(n) if element_order(ctab, a) == n), None)


def _is_klein(ctab) -> bool:
    return len(ctab) == 4 and all(element_order(ctab, a) <= 2 for a in range(4))


# --- closed formulas ---------------------------------------------------------


def _cyclic_orders(mod: Module, t: int) -> dict[str, int]:
    m, n = mod.m, len(mod.ctab)
    u = mod.units[t]
    norm = sum(pow(u, k, m) for k in range(n)) % m
    ker_norm = gcd(norm, m)             # |ker N|
    fixed = gcd(u - 1, m)               # |B^C| = |ker (t-1)|
    odd = ker_norm * fixed // m         # |ker N| / |(t-1)B|, |(t-1)B| = m / fixed
    even = fixed * ker_norm // m        # |B^C| / |NB|, |NB| = m / ker_norm
    return {"h1": odd, "h2": even, "h3": odd, "z1": ker_norm}


def _klein_trivial_orders(m: int) -> dict[str, int]:
    g = gcd(2, m)                       # |Hom(Z2, Z/m)| = |Ext(Z2, Z/m)|
    return {"h1": g**2, "h2": g * g**2, "h3": g**3 * g, "z1": g**2}


def formula_orders(mod: Module) -> dict[str, int] | None:
    """|H^1|, |H^2|, |H^3|, |Z^1| from a closed formula, or None."""
    t = _generator(mod.ctab)
    if t is not None:
        return _cyclic_orders(mod, t)
    if _is_klein(mod.ctab) and all(u % mod.m == 1 % mod.m for u in mod.units):
        return _klein_trivial_orders(mod.m)
    return None


# --- exact counting ----------------------------------------------------------


def _prime_powers(m: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while m > 1:
        k = 0
        while m % p == 0:
            m, k = m // p, k + 1
        if k:
            out.append((p, k))
        p += 1
    return out


def _valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x, v = x // p, v + 1
    return v


def _kernel_size_local(rows: list[list[int]], ncols: int, p: int, k: int) -> int:
    """Number of x in (Z/p^k)^ncols with A x = 0, by pivoting on least valuation."""
    q = p**k
    a = [[v % q for v in row] for row in rows]
    free = set(range(ncols))
    size = 1
    while True:
        best = None
        for i, row in enumerate(a):
            for j in free:
                if row[j]:
                    v = _valuation(row[j], p)
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            break
        v, i, j = best
        pivot = a.pop(i)
        inv = pow(pivot[j] // p**v, -1, q)
        for row in a:
            if row[j]:
                f = (row[j] // p**v) * inv % q
                for c in range(ncols):
                    row[c] = (row[c] - f * pivot[c]) % q
        free.discard(j)
        size *= p**v
    return size * q ** len(free)


def _kernel_size(rows: list[list[int]], ncols: int, m: int) -> int:
    size = 1
    for p, k in _prime_powers(m):
        size *= _kernel_size_local(rows, ncols, p, k)
    return size


def _coboundary_rows(mod: Module, n: int) -> tuple[list[list[int]], int]:
    """Integer matrix of the normalized bar coboundary C^n -> C^(n+1)."""
    ctab = mod.ctab
    nonzero = range(1, len(ctab))
    cols = list(itertools.product(nonzero, repeat=n))
    col = {t: i for i, t in enumerate(cols)}
    rows = []
    for g in itertools.product(nonzero, repeat=n + 1):
        row = [0] * len(cols)
        if n == 0:
            row[0] = mod.units[g[0]] - 1
        else:
            row[col[g[1:]]] += mod.units[g[0]]
            for i in range(n):
                merged = ctab[g[i]][g[i + 1]]
                if merged:
                    row[col[g[:i] + (merged,) + g[i + 2:]]] += (-1) ** (i + 1)
            row[col[g[:n]]] += (-1) ** (n + 1)
        rows.append(row)
    return rows, len(cols)


def cocycle_count(mod: Module, n: int) -> int:
    """|Z^n| of normalized cochains; Z^0 = B^C."""
    rows, ncols = _coboundary_rows(mod, n)
    return _kernel_size(rows, ncols, mod.m)


def counted_orders(mod: Module) -> dict[str, int]:
    z = [cocycle_count(mod, n) for n in range(4)]
    cochains = [mod.m ** ((len(mod.ctab) - 1) ** n) for n in range(4)]
    out = {f"h{n}": z[n] * z[n - 1] // cochains[n - 1] for n in (1, 2, 3)}
    out["z1"] = z[1]
    return out


def expected_orders(mod: Module) -> dict[str, int]:
    """|H^1|, |H^2|, |H^3|, |Z^1|: by formula where one applies, else by counting."""
    return formula_orders(mod) or counted_orders(mod)


# --- the catalog size --------------------------------------------------------


def _cyclic_table(n: int):
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def standard_bases() -> dict[str, tuple]:
    klein = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
    return {"Z2": _cyclic_table(2), "Z3": _cyclic_table(3),
            "Z4": _cyclic_table(4), "K4": klein}


def hom_count_to_units(ctab, m: int) -> int:
    """|Hom(C, Aut Z/m)|, by trying every map C -> (Z/m)^x."""
    units = [u for u in range(m) if gcd(u, m) == 1]
    n = len(ctab)
    count = 0
    for images in itertools.product(units, repeat=n):
        if all(images[ctab[a][b]] == images[a] * images[b] % m
               for a in range(n) for b in range(n)):
            count += 1
    return count


def catalog_module_count() -> int:
    """Sum over C in {Z2, Z3, Z4, K4} and B in {Z2, Z3, Z4} of |Hom(C, Aut B)|."""
    return sum(hom_count_to_units(ctab, m)
               for ctab in standard_bases().values() for m in (2, 3, 4))


# --- comparisons ---------------------------------------------------------------


def mismatch(what: str, got, want) -> list[str]:
    """One error line when got != want, else nothing."""
    return [] if got == want else [f"{what}: got {got}, expected {want}"]


def self_test() -> list[str]:
    """Known values, agreement of formula and count, and rejection of wrong values."""
    z2, z3 = _cyclic_table(2), _cyclic_table(3)
    klein = standard_bases()["K4"]
    cases = {
        "Z2-Z2-trivial": Module(z2, 2, (1, 1)),
        "Z3-Z3-trivial": Module(z3, 3, (1, 1, 1)),
        "Z2-Z3-inversion": Module(z2, 3, (1, 2)),
        "K4-Z2-trivial": Module(klein, 2, (1, 1, 1, 1)),
        "K4-Z4-trivial": Module(klein, 4, (1, 1, 1, 1)),
    }
    known = [("Z2-Z2-trivial", "h2", 2), ("Z2-Z2-trivial", "h3", 2),
             ("Z3-Z3-trivial", "h2", 3), ("Z2-Z3-inversion", "h2", 1),
             ("K4-Z2-trivial", "h2", 8)]
    errors = []
    for name, key, want in known:
        got = formula_orders(cases[name])[key]
        errors += mismatch(f"self-test formula {name} {key}", got, want)
        if not mismatch("", want + 1, want):
            errors.append(f"self-test: a wrong {name} {key} is not rejected")
    for name, mod in cases.items():
        errors += mismatch(f"self-test count vs formula {name}",
                           counted_orders(mod), formula_orders(mod))
    errors += mismatch("self-test catalog size", catalog_module_count(), 22)
    return errors
