"""Independent reference implementations used only by the tests.

Everything here recomputes a quantity the library also computes, but by a
different algorithm: cofactor determinants, interpolated characteristic
polynomials, Descartes-based root isolation, basic-solution enumeration
for feasibility, downward breadth-first search for the closure order, and
the lower-link formula for multiplicities of the constant function.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from lefscalc.exact import RationalMatrix, RationalPolynomial, solve


def det_cofactor(m: RationalMatrix) -> Fraction:
    n = m.nrows
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m.entry(0, 0)
    total = Fraction(0)
    for j in range(n):
        minor = RationalMatrix.of(
            [[m.entry(i, k) for k in range(n) if k != j] for i in range(1, n)]
        )
        total += (Fraction(-1) ** j) * m.entry(0, j) * det_cofactor(minor)
    return total


def char_poly_interpolated(m: RationalMatrix) -> RationalPolynomial:
    """det(tI - A) recovered from n+1 cofactor evaluations by Lagrange."""
    n = m.nrows
    pts = [Fraction(k) for k in range(n + 1)]
    vals = [
        det_cofactor(RationalMatrix.identity(n).scale(x) - m) for x in pts
    ]
    poly = RationalPolynomial.of([])
    for i, xi in enumerate(pts):
        term = RationalPolynomial.constant(vals[i])
        for j, xj in enumerate(pts):
            if j != i:
                term = term * RationalPolynomial.of([-xj, 1])
                term = term * RationalPolynomial.constant(Fraction(1) / (xi - xj))
        poly = poly + term
    return poly


# ---------------------------------------------------------------------------
# real root counting by Descartes isolation (no Sturm chains involved)

def _variations(coeffs) -> int:
    signs = [c for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def _compose_linear(p: RationalPolynomial, a, b) -> RationalPolynomial:
    """p(a + b t) by Horner over polynomials."""
    lin = RationalPolynomial.of([a, b])
    acc = RationalPolynomial.of([])
    for c in reversed(p.coeffs):
        acc = acc * lin + RationalPolynomial.constant(c)
    return acc


def _descartes_01(p: RationalPolynomial) -> int:
    """Descartes bound on the number of roots of p in the open interval (0,1)."""
    d = p.degree
    one_plus = RationalPolynomial.of([1, 1])
    acc = RationalPolynomial.of([])
    power = RationalPolynomial.of([1])
    powers = [power]
    for _ in range(d):
        power = power * one_plus
        powers.append(power)
    for i, c in enumerate(p.coeffs):
        acc = acc + RationalPolynomial.constant(c) * powers[d - i]
    return _variations(acc.coeffs)


def _count_open(q: RationalPolynomial, a: Fraction, b: Fraction) -> int:
    """Exact number of roots of squarefree q in the open interval (a, b)."""
    local = _compose_linear(q, a, b - a)
    v = _descartes_01(local)
    if v == 0:
        return 0
    if v == 1:
        return 1
    mid = (a + b) / 2
    count = 1 if q(mid) == 0 else 0
    return count + _count_open(q, a, mid) + _count_open(q, mid, b)


def cauchy_bound(q: RationalPolynomial) -> Fraction:
    lead = abs(q.leading())
    rest = [abs(c) for c in q.coeffs[:-1]]
    return Fraction(1) + (max(rest) / lead if rest else Fraction(0))


def count_real_roots_geq_oracle(p: RationalPolynomial, c) -> int:
    """Number of distinct real roots of p that are >= c."""
    q = p.squarefree_part()
    if q.degree <= 0:
        return 0
    c = Fraction(c)
    bound = max(cauchy_bound(q), c) + 1
    count = 1 if q(c) == 0 else 0
    if q(bound) == 0:
        count += 1
    return count + _count_open(q, c, bound)


# ---------------------------------------------------------------------------
# feasibility of {Ax = b, x >= 0} by enumerating basic solutions

def feasible_bruteforce(rows, rhs) -> bool:
    if not rows:
        return all(x == 0 for x in rhs)
    m = len(rows)
    n = len(rows[0])
    if all(x == 0 for x in rhs):
        return True
    if n == 0:
        return False
    for size in range(1, min(m, n) + 1):
        for cols in itertools.combinations(range(n), size):
            sub = RationalMatrix.of([[row[j] for j in cols] for row in rows])
            result = solve(sub, list(rhs))
            if result is None:
                continue
            particular, null_basis = result
            if null_basis:
                continue
            if all(x >= 0 for x in particular):
                return True
    return False


# ---------------------------------------------------------------------------
# closure order on permutations by downward search

def bruhat_leq_bfs(u: tuple, w: tuple) -> bool:
    from lefscalc.flags import inversion_count

    if u == w:
        return True
    n = len(w)
    seen = {w}
    frontier = [w]
    while frontier:
        fresh = []
        for x in frontier:
            lx = inversion_count(x)
            for i in range(n):
                for j in range(i + 1, n):
                    y = list(x)
                    y[i], y[j] = y[j], y[i]
                    y = tuple(y)
                    if inversion_count(y) < lx and y not in seen:
                        seen.add(y)
                        fresh.append(y)
        frontier = fresh
    return u in seen


# ---------------------------------------------------------------------------
# multiplicity of the constant function via the lower link

def lower_link_multiplicity(space, ell, v) -> int:
    """1 - chi(lower link of v); the multiplicity of the function 1 at v."""
    height = ell(v)
    chi = 0
    for s in space.simplices:
        if v in s:
            continue
        if not space.has(s | {v}):
            continue
        if all(ell(w) < height for w in s):
            chi += (-1) ** (len(s) - 1)
    return 1 - chi


# ---------------------------------------------------------------------------
# fixed subcomplex by scanning every carried vertex for every simplex

def fixed_members_by_scan(spec) -> frozenset:
    """Base simplices whose carried subdivision vertices are all fixed: a
    vertex is fixed when it is carried by one base vertex and maps there."""
    over = [
        (base_cell, w)
        for cell, base_cell in spec.carrier().items()
        if len(cell) == 1
        for w in cell
    ]
    return frozenset(
        sigma
        for sigma in spec.base.simplices
        if all(c == {spec.vertex_map[w]} for c, w in over if c <= sigma)
    )
