"""Independent reference implementations used only by the tests.

Everything here recomputes a quantity the library also computes, but by a
different algorithm: cofactor determinants, interpolated characteristic
polynomials and the Faddeev-LeVerrier recursion that the Hessenberg
reduction replaced, Descartes-based root isolation, basic-solution
enumeration for feasibility, downward breadth-first search for the closure
order, and the lower-link formula for multiplicities of the constant
function, and the dense chain engine: chain complexes and chain maps as
dense rational matrices, homology traces by row echelon forms and one
solve per cycle.  It also keeps the slow routes that a faster one
replaced: the vertex key rebuilt recursively on every call, where a
subdivision vertex carries its own, and the dot criterion recounting every
prefix on every comparison, or keeping each permutation's counts as a tuple
compared entry by entry, where one packed integer test now compares them;
the maximal simplices of a subdivision found by listing every facet, where
the carrier now decides; complex validation that sorts the simplices
twice and runs the affine rank test on every simplex; and the Euler
integral, pushforward and multiplicity table summed one Gaussian add at a
time, with a genericity scan that sorts every edge; the multiplicity
table ranked by a sort of Fraction heights and summed one signed_sum per
lower star, where heights scaled to ints and one pass over the cells now
build it; and the supported global trace taken on a second problem
restricted to the support's closure.  The local index of each fixed component, the chain-level Hopf
trace over the base simplices that meet it, checks the signed local
contributions without their normal data.  The fixed-point refusal is
re-derived from barycentric weights averaged level by level and
basic-solution enumeration on every top simplex; the route that the
carrier signs replaced, exact displacement rows for every top simplex
solved by the LP kernel, is kept beside it.  Matrices with a known
characteristic polynomial come from companion matrices under a seeded
similarity.  The dense matrix algebra these references share (products,
sums, transposes, traces, ranks and row echelon forms) lives here too:
the library's RationalMatrix keeps only what a normal matrix needs.  Root
counts are also taken by Sturm's theorem on the squarefree part, the route
that one Sturm chain on p itself replaced, and by that one Sturm chain at
every degree, the route that the closed form replaced for degree <= 2.
The sign presolve of the LP kernel is kept in its dense form, on rows of
signs and a list of right-hand side signs, the form that sparse sign
columns replaced.  The summation kernel is kept in the form that folds
each part through its own {denominator: numerator} dict, where one table
per group, keyed by the pair of denominators, now sums both parts.  The
fundamental chain of sd^k is kept as the walk of the subdivision tower that
sorts every kept cell into its flag to find its sign, where per-dimension
flag tables now expand each base simplex.  One barycentric subdivision is
kept as it was written first: chains of faces by recursion over frozensets,
names sorted by vertex key, barycentres summed one Fraction at a time and
the complex re-read through `SimplicialComplex.build`, where the step now
reads the parent's vertex ranks and builds each cell from its faces' cells.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from lefscalc.complexes import (
    CellSpace,
    SimplicialComplex,
    TupleVertex,
    Violation,
    canonical_tuple,
    cell_sort_key,
    closure,
    induced_subcomplex,
    require_simplicial,
    require_valid,
    sd_positions,
    vertex_key,
)
from lefscalc.errors import DegenerateInputError, GenericityError
from lefscalc.euler import ConstructibleFunction
from lefscalc.exact import (
    GZERO,
    GaussianRational,
    RationalMatrix,
    RationalPolynomial,
    _sign_presolve,
    count_real_roots_gt,
    has_nonneg_solution,
    signed_sum,
)
from lefscalc.fixedpoint import fixed_components
from lefscalc.homology import lefschetz_number, self_map_endomorphism
from lefscalc.maps import SelfMapSpec, subdivided_complex
from lefscalc.morse import (
    MultiplicityTable,
    _refuse_ties,
    _require_defined,
    _tied_edges,
)


# ---------------------------------------------------------------------------
# dense matrix algebra on RationalMatrix, which the library keeps only for
# normal matrices


def transpose(m: RationalMatrix) -> RationalMatrix:
    if not m.rows:
        return RationalMatrix(tuple(() for _ in range(m.ncols)), 0)
    return RationalMatrix(tuple(zip(*m.rows)), m.nrows)


def add(a: RationalMatrix, b: RationalMatrix, sign: int = 1) -> RationalMatrix:
    """a + sign * b, entry by entry."""
    return RationalMatrix(
        tuple(
            tuple(x + sign * y for x, y in zip(ra, rb))
            for ra, rb in zip(a.rows, b.rows)
        ),
        a.ncols,
    )


def matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.ncols != b.nrows:
        raise DegenerateInputError(
            f"matmul shape mismatch {a.nrows}x{a.ncols} @ {b.nrows}x{b.ncols}"
        )
    cols = transpose(b).rows
    return RationalMatrix(
        tuple(
            tuple(sum(map(operator.mul, row, col), Fraction(0)) for col in cols)
            for row in a.rows
        ),
        b.ncols,
    )


def trace(m: RationalMatrix) -> Fraction:
    if not m.is_square():
        raise DegenerateInputError("trace needs a square matrix")
    return sum((m.rows[i][i] for i in range(m.nrows)), Fraction(0))


def row_echelon(work: list) -> tuple:
    """In-place forward elimination; returns (work, pivot_columns).

    Deterministic: always the first nonzero entry of the current column.
    """
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot_row = next((r for r in range(row, nrows) if work[r][col] != 0), None)
        if pivot_row is None:
            continue
        work[row], work[pivot_row] = work[pivot_row], work[row]
        pivot = Fraction(work[row][col])
        work[row] = [a / pivot for a in work[row]]
        for r in range(nrows):
            if r != row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
    return work, pivots


def rank(m: RationalMatrix) -> int:
    return len(row_echelon([list(r) for r in m.rows])[1])


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


def char_poly_faddeev_leverrier(m: RationalMatrix) -> RationalPolynomial:
    """det(tI - A) by the Faddeev-LeVerrier recursion: n products of
    n x n matrices, O(n^4)."""
    n = m.nrows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    acc = RationalMatrix.identity(n)
    for k in range(1, n + 1):
        am = matmul(m, acc)
        c = -trace(am) / k
        coeffs[n - k] = c
        acc = add(am, RationalMatrix.identity(n).scale(c))
    return RationalPolynomial(tuple(coeffs))


def companion(coeffs) -> RationalMatrix:
    """The companion matrix of t^n + coeffs[n-1] t^(n-1) + ... + coeffs[0],
    whose characteristic polynomial is that one."""
    n = len(coeffs)
    return RationalMatrix.of(
        [
            [int(j == i - 1) - (coeffs[i] if j == n - 1 else 0) for j in range(n)]
            for i in range(n)
        ]
    )


def unit_upper_triangular(rng, n: int) -> tuple:
    """A seeded unit upper-triangular rational matrix U and U^-1, the
    inverse by back substitution."""
    u = [
        [
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if j > i else Fraction(int(i == j))
            for j in range(n)
        ]
        for i in range(n)
    ]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(u[i][k] * inv[k][j] for k in range(i + 1, j + 1))
    return RationalMatrix.of(u), RationalMatrix.of(inv)


def similar_matrix(rng, m: RationalMatrix) -> RationalMatrix:
    """P m P^-1 for a seeded P = L U, L unit lower- and U unit
    upper-triangular: dense, with the characteristic polynomial of m."""
    n = m.nrows
    u, u_inv = unit_upper_triangular(rng, n)
    v, v_inv = unit_upper_triangular(rng, n)
    return functools.reduce(matmul, [transpose(v), u, m, u_inv, transpose(v_inv)])


def char_poly_interpolated(m: RationalMatrix) -> RationalPolynomial:
    """det(tI - A) recovered from n+1 cofactor evaluations by Lagrange."""
    n = m.nrows
    pts = [Fraction(k) for k in range(n + 1)]
    vals = [
        det_cofactor(add(RationalMatrix.identity(n).scale(x), m, -1)) for x in pts
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


def count_real_roots_geq_squarefree(p: RationalPolynomial, c) -> int:
    """The route one Sturm chain on p replaced: Sturm on the squarefree
    part, after dividing out (t - c) once when c is a root."""
    sf = p.squarefree_part()
    if sf.degree <= 0:
        return 0
    c = Fraction(c)
    if sf(c) == 0:
        reduced = sf.divmod(RationalPolynomial.x_minus(c))[0]
        return 1 + count_real_roots_gt(reduced, c)
    return count_real_roots_gt(sf, c)


def count_real_roots_geq_by_sturm(p: RationalPolynomial, c) -> int:
    """The route the closed form replaced for degree <= 2: roots at c
    divided out, then one Sturm chain on what is left."""
    c = Fraction(c)
    at_c = 0
    while p(c) == 0:
        p, at_c = p.divmod(RationalPolynomial.x_minus(c))[0], 1
    return at_c + count_real_roots_gt(p, c)


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


def sign_presolve_dense(rows: list, rhs: list):
    """The sign presolve on dense rows: `rows` holds the signs (-1, 0, 1)
    of A's rows and `rhs` those of b.  None on a Farkas certificate,
    otherwise the live column indices, by full passes over the rows until
    a pass drops nothing."""
    live = range(len(rows[0]))
    changed = True
    while changed:
        changed = False
        for row, b in zip(rows, rhs):
            seen = {row[j] for j in live}
            pos, neg = 1 in seen, -1 in seen
            if (b > 0 and not pos) or (b < 0 and not neg):
                return None
            if b == 0 and pos != neg:
                live = [j for j in live if row[j] == 0]
                changed = True
    return list(live)


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


def bruhat_leq_loop(a: tuple, b: tuple) -> bool:
    """The dot criterion with every prefix count recomputed per call."""
    n = len(a)
    for i in range(1, n):
        for j in range(2, n + 1):
            ca = sum(1 for k in range(i) if a[k] >= j)
            cb = sum(1 for k in range(i) if b[k] >= j)
            if ca > cb:
                return False
    return True


@functools.lru_cache(maxsize=None)  # every closure at n = 6 reads all 720
def dot_vector_tuple(perm: tuple) -> tuple:
    """The dot counts as a tuple: for each prefix length i < n and
    threshold 2 <= j <= n, in that order, how many of the first i entries
    of perm are >= j."""
    n = len(perm)
    counts = [0] * (n + 1)  # counts[j]: prefix entries >= j
    out = []
    for x in perm[: n - 1]:
        for j in range(2, n + 1):
            if x >= j:
                counts[j] += 1
        out.extend(counts[2:])
    return tuple(out)


def schubert_members_by_dot_tuples(model, perm: tuple) -> set:
    """Names of the cells in the closure of perm's cell, each permutation's
    dot tuple compared with perm's entry by entry."""
    from lefscalc.flags import perm_name

    target = dot_vector_tuple(perm)
    return {
        perm_name(w)
        for w in model.perms
        if all(map(operator.le, dot_vector_tuple(w), target))
    }


# ---------------------------------------------------------------------------
# vertex order keys, rebuilt on every call

def vertex_key_recursive(v):
    """complexes.vertex_key's shape: a tuple's parts' keys spliced in
    after its length."""
    if isinstance(v, tuple):
        return (2, len(v), *(vertex_key_recursive(x) for x in v))
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, int) and not isinstance(v, bool):
        return (0, v)
    return (3, str(v))


def vertex_key_nested(v):
    """The vertex order as it was keyed before the splice: a tuple's parts'
    keys in an inner tuple, (2, len, (k_1, ..., k_n)).  The differential
    oracle for the order; the shape itself is vertex_key_recursive's."""
    if isinstance(v, tuple):
        return (2, len(v), tuple(vertex_key_nested(x) for x in v))
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, int) and not isinstance(v, bool):
        return (0, v)
    return (3, str(v))


def sorted_entries_by_key(table) -> list:
    """morse.MultiplicityTable.sorted_entries as it was before it read the
    space's vertex order: the entries sorted by vertex_key."""
    from lefscalc.complexes import vertex_key

    return sorted(table.entries.items(), key=lambda kv: vertex_key(kv[0]))


def cell_sort_key_nested(cell):
    """complexes.cell_sort_key of a simplex as it was keyed before the
    splice: (size, (k_1, ..., k_n)), over vertex_key_nested."""
    return (len(cell), tuple(sorted(map(vertex_key_nested, cell))))


# ---------------------------------------------------------------------------
# complex validation, every simplex rank-tested


def validate_all_simplices(space) -> list:
    """`complexes.validate` as it was before the rank test moved to the
    maximal simplices: the same violations, in the same order."""
    if isinstance(space, CellSpace):
        return []
    out = []
    vset = set(space.vertices)
    for s in sorted(space.simplices, key=cell_sort_key):
        if not s:
            out.append(Violation("empty-simplex", "the empty set is not a cell"))
            continue
        ordered = canonical_tuple(s)
        stray = [v for v in ordered if v not in vset]
        if stray:
            out.append(
                Violation("unknown-vertex", f"simplex {ordered} uses unlisted {stray}")
            )
        if len(s) > 1:
            for v in ordered:
                if s - {v} not in space.simplices:
                    out.append(
                        Violation(
                            "not-face-closed",
                            f"face {canonical_tuple(s - {v})} of {ordered} is missing",
                        )
                    )
    for v in space.vertices:
        if frozenset([v]) not in space.simplices:
            out.append(Violation("vertex-not-a-cell", f"vertex {v!r} has no 0-simplex"))
    if space.coords is not None:
        missing = [v for v, c in zip(space.vertices, space.coords) if c is None]
        if missing:
            out.append(Violation("missing-coordinates", f"coordinates absent for {missing}"))
        else:
            lengths = {len(c) for c in space.coords}
            if len(lengths) > 1:
                out.append(
                    Violation("ragged-coordinates", f"mixed lengths {sorted(lengths)}")
                )
            else:
                for s in sorted(space.simplices, key=cell_sort_key):
                    if not s <= vset:
                        continue  # already an unknown-vertex violation
                    pts = [space.coord_of(v) for v in canonical_tuple(s)]
                    if len(pts) < 2 or any(p is None for p in pts):
                        continue
                    rows = [[b - a for a, b in zip(pts[0], p)] for p in pts[1:]]
                    if rank(RationalMatrix(tuple(map(tuple, rows)))) < len(rows):
                        out.append(
                            Violation(
                                "affinely-dependent",
                                f"simplex {canonical_tuple(s)} is degenerate",
                            )
                        )
    return out


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
# signed sums folded part by part

def signed_sums_by_part(count: int, terms) -> list:
    """exact.signed_sums with the numerators of each part added per
    denominator in a dict of its own, and each part folded over the lcm
    of its dict's keys."""
    re_parts = [{} for _ in range(count)]  # by group: {denominator: numerator}
    im_parts = [{} for _ in range(count)]
    for index, sign, value in terms:
        for part, tables in ((value.re, re_parts), (value.im, im_parts)):
            num = part.numerator
            if num:
                parts = tables[index]
                den = part.denominator
                parts[den] = parts.get(den, 0) + sign * num
    return [
        GaussianRational(_fold_by_part(re), _fold_by_part(im)) if re or im else GZERO
        for re, im in zip(re_parts, im_parts)
    ]


def _fold_by_part(parts: dict) -> Fraction:
    """sum(num / den) over a {den: num} table, normalized once."""
    common = lcm(*parts)  # 1 for an empty table
    return Fraction(
        sum(num * (common // den) for den, num in parts.items()), common
    )


# ---------------------------------------------------------------------------
# Euler calculus summed one Gaussian add at a time, and the genericity
# scan over every sorted edge

def euler_integral_loop(phi) -> GaussianRational:
    total = GZERO
    for cell, value in phi.values.items():
        total = total + value * ((-1) ** phi.parent.cell_dim(cell))
    return total


def pushforward_loop(g, phi) -> ConstructibleFunction:
    if phi.parent != g.source:
        raise DegenerateInputError("function does not live on the map's source")
    table = {}
    for cell, value in phi.values.items():
        image = g.image_simplex(cell)
        weight = (-1) ** (len(cell) - len(image))
        table[image] = table.get(image, GZERO) + value * weight
    return ConstructibleFunction(
        g.target, {c: v for c, v in table.items() if not v.is_zero()}
    )


def genericity_check_by_k_cells(space, ell) -> list:
    ties = []
    for edge in space.k_cells(1):
        a, b = canonical_tuple(edge)
        if ell(a) == ell(b):
            ties.append((a, b))
    return ties


def cc_table_loop(phi, ell) -> MultiplicityTable:
    space = phi.parent
    ties = genericity_check_by_k_cells(space, ell)
    if ties:
        raise GenericityError(
            f"functional is degenerate on edges {ties[:4]}", edges=ties
        )
    table = {v: GZERO for v in space.vertices}
    for cell, value in phi.values.items():
        top = max(cell, key=lambda w: (ell(w), vertex_key(w)))
        table[top] = table[top] + value * ((-1) ** (len(cell) - 1))
    return MultiplicityTable(space, table)


def cc_table_by_fraction_sort(phi, ell) -> MultiplicityTable:
    """The table as it was built before the heights were scaled to ints:
    one stable sort of the vertices on their Fraction heights, the cells
    grouped into one list per top vertex, and one signed_sum per star."""
    space = require_simplicial(phi.parent, "cc_table")
    values = ell.values
    _require_defined(space, values)
    order = sorted(space.vertices, key=values.__getitem__)
    rank = {v: i for i, v in enumerate(order)}
    if any(values[a] == values[b] for a, b in zip(order, order[1:])):
        _refuse_ties(_tied_edges(space.simplices, values))
    stars = {}  # top vertex -> signed terms of the cells it tops
    for cell, value in phi.values.items():
        top = order[max(map(rank.__getitem__, cell))]
        stars.setdefault(top, []).append(((-1) ** (len(cell) - 1), value))
    return MultiplicityTable(space, {
        v: signed_sum(stars[v]) if v in stars else GZERO for v in space.vertices
    })


def top_simplices_by_facet_scan(space) -> frozenset:
    """The simplices that are no facet of another, found by listing every
    facet of every simplex."""
    facets = {s - {v} for s in space.simplices if len(s) > 1 for v in s}
    return space.simplices - facets


# ---------------------------------------------------------------------------
# the fundamental chain of sd^level by walking the subdivision tower

def subdivision_signs_by_tower(base, level: int) -> dict:
    """sd^level_* on C_*(base) as {cell of sd^level: sign}.  The cells of
    the fundamental chain are those whose carrier at every step of the
    tower has their own dimension; at each step a cell's sign against its
    carrier is recomputed from the cell alone by flag_sign_by_sort."""
    signs = dict.fromkeys(base.simplices, 1)
    finer = base
    for _ in range(level):
        finer, step = subdivided_complex(finer, 1)
        signs = {
            tau: signs[rho] * flag_sign_by_sort(tau)
            for tau, rho in step.items()
            if len(tau) == len(rho) and rho in signs
        }
    return signs


def flag_sign_by_sort(tau: frozenset) -> int:
    """The sign of a top cell of sd rho against rho: sort its vertices by
    length into the flag rho_0 < ... < rho_d, whose last vertex names rho
    in canonical order, and take the parity of the vertices w_i that each
    face adds."""
    flag = sorted(tau, key=len)
    order = {v: i for i, v in enumerate(flag[-1])}
    ranks, seen = [], set()
    for face in flag:
        (w,) = seen.symmetric_difference(face)
        seen.add(w)
        ranks.append(order[w])
    return (-1) ** sum(a > b for a, b in itertools.combinations(ranks, 2))


# ---------------------------------------------------------------------------
# one barycentric subdivision by chains of faces

def barycentric_subdivide_by_chains(space) -> tuple:
    """(sd space, carrier) as `complexes.barycentric_subdivide` returns it:
    every chain of faces ending at a simplex, found by recursion over its
    faces, names sorted by vertex key, barycentres summed term by term, and
    the complex read back through `SimplicialComplex.build`."""
    space = require_simplicial(space, "barycentric_subdivide")
    require_valid(space)
    chains_by_top = {}

    def chains(simplex: frozenset) -> list:
        if simplex in chains_by_top:
            return chains_by_top[simplex]
        out = [(simplex,)]
        items = tuple(simplex)
        for k in range(1, len(items)):
            for face in itertools.combinations(items, k):
                for chain in chains(frozenset(face)):
                    out.append(chain + (simplex,))
        chains_by_top[simplex] = out
        return out

    names = {s: TupleVertex(canonical_tuple(s)) for s in space.simplices}
    carrier = {}
    for simplex in space.simplices:
        for chain in chains(simplex):
            carrier[frozenset(names[s] for s in chain)] = chain[-1]
    coords = None
    if space.coords is not None:
        coords = {}
        for simplex in space.simplices:
            pts = [space.coord_of(v) for v in simplex]
            n = len(pts)
            coords[names[simplex]] = tuple(
                sum(p[i] for p in pts) / Fraction(n) for i in range(len(pts[0]))
            )
    return SimplicialComplex.build(names.values(), carrier, coords), carrier


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


# ---------------------------------------------------------------------------
# barycentric weights level by level, and the fixed-point refusal re-derived

def barycentric_weights(vertex, level: int) -> dict:
    """Position of a vertex of sd^level(base) over the base vertices: the
    average of its parts' positions one level down.  The level, not
    membership in the base, ends the recursion."""
    if level == 0:
        return {vertex: Fraction(1)}
    total = {}
    for part in vertex:
        for v, w in barycentric_weights(part, level - 1).items():
            total[v] = total.get(v, Fraction(0)) + w / len(vertex)
    return total


def non_vertex_fixed_point_refusal(spec):
    """The FixedPointNotSimplicialError text that `fixed_subcomplex` owes
    `spec`, or None.  Each top simplex of sd^level(base), in cell order, is
    asked by basic-solution enumeration for weights t >= 0 on its vertices,
    summing to 1 over the moved ones, with sum t_i (position_i - image_i)
    = 0; the first that has them is named by its carrier, the union of its
    vertices' supports."""
    source = spec.source_complex()
    simplices = source.simplices
    weights = {w: barycentric_weights(w, spec.level) for w in source.vertices}
    for tau in sorted(simplices, key=cell_sort_key):
        if any(tau | {v} in simplices for v in source.vertices if v not in tau):
            continue
        ws = canonical_tuple(tau)
        images = [spec.vertex_map[w] for w in ws]
        moved = [weights[w] != {u: 1} for w, u in zip(ws, images)]
        if not any(moved):
            continue
        coords = set(images).union(*(weights[w] for w in ws))
        rows = [
            [weights[w].get(u, Fraction(0)) - (image == u) for w, image in zip(ws, images)]
            for u in sorted(coords, key=vertex_key)
        ]
        rows.append([Fraction(int(m)) for m in moved])
        if feasible_bruteforce(rows, [Fraction(0)] * (len(rows) - 1) + [Fraction(1)]):
            carrier = frozenset().union(*(weights[w] for w in ws))
            return (
                "geometric fixed points inside simplex carried by "
                f"{canonical_tuple(carrier)} are not vertices; "
                "subdivide the base complex and restate the map"
            )
    return None


def fixed_point_refusal_by_fraction_lp(spec):
    """The same refusal text, or None, with exact Fraction displacement
    rows built from `sd_positions` for every top simplex, in cell order,
    and each system decided by `has_nonneg_solution`."""
    source = spec.source_complex()
    carrier = spec.carrier()
    positions = sd_positions(spec.base)
    zero = Fraction(0)
    fixed = {
        w for w in source.vertices
        if carrier[frozenset([w])] == {spec.vertex_map[w]}
    }
    faces = {s - {v} for s in source.simplices if len(s) > 1 for v in s}
    for tau in sorted(source.simplices - faces, key=cell_sort_key):
        ws = canonical_tuple(tau)
        if all(w in fixed for w in ws):
            continue
        displacement = []
        for w in ws:
            column = dict(positions[w])
            image = spec.vertex_map[w]
            column[image] = column.get(image, zero) - 1
            displacement.append(column)
        coords = sorted(set().union(*displacement), key=vertex_key)
        rows = [[column.get(u, zero) for column in displacement] for u in coords]
        rows.append([Fraction(0 if w in fixed else 1) for w in ws])
        if has_nonneg_solution(rows, [zero] * len(coords) + [Fraction(1)]):
            return (
                "geometric fixed points inside simplex carried by "
                f"{canonical_tuple(carrier[tau])} are not vertices; "
                "subdivide the base complex and restate the map"
            )
    return None


def preserves_by_tower_scan(spec, cells: frozenset) -> bool:
    """Whether every simplex of sd^level(base) that `cells` carries maps
    into `cells`, read off the tower's carrier map."""
    m = spec.as_map()
    return all(
        m.image_simplex(tau) in cells
        for tau, sigma in spec.carrier().items() if sigma in cells
    )


def fixed_subcomplex_by_tower(spec):
    """fixed_subcomplex's members, or its refusal text, from the tower: each
    vertex's carrier and the top simplices are read from spec.carrier(), a
    top simplex being one with as many vertices as its carrier, a maximal
    base simplex.  The sign presolve settles a top simplex first, and the
    ones it leaves open are solved exactly in cell order."""
    carrier = spec.carrier()
    signs, moved = {}, set()  # moved vertex -> displacement signs; their carriers
    for w in spec.source_complex().vertices:
        base_cell, image = carrier[frozenset([w])], spec.vertex_map[w]
        if len(base_cell) > 1 or image not in base_cell:
            signs[w] = column = dict.fromkeys(base_cell, 1)
            column[image] = -1
            moved.add(base_cell)
    maximal = top_simplices_by_facet_scan(spec.base)
    undecided = [
        tau for tau, sigma in carrier.items()
        if len(tau) == len(sigma) and sigma in maximal
        and any(w in signs for w in tau)
        and _sign_presolve([signs[w] for w in tau if w in signs], {})
    ]
    positions = sd_positions(spec.base)
    zero = Fraction(0)
    for tau in sorted(undecided, key=cell_sort_key):
        ws = canonical_tuple(tau)
        displacement = []
        for w in ws:
            column = dict(positions[w])
            column[spec.vertex_map[w]] = column.get(spec.vertex_map[w], zero) - 1
            displacement.append(column)
        coords = sorted(set().union(*displacement), key=vertex_key)
        rows = [[column.get(u, zero) for column in displacement] for u in coords]
        rows.append([Fraction(1 if w in signs else 0) for w in ws])
        if has_nonneg_solution(rows, [zero] * len(coords) + [Fraction(1)]):
            return (
                "geometric fixed points inside simplex carried by "
                f"{canonical_tuple(carrier[tau])} are not vertices; "
                "subdivide the base complex and restate the map"
            )
    members = set()
    for sigma in sorted(spec.base.simplices, key=len):
        if sigma not in moved and all(sigma - {v} in members for v in sigma if len(sigma) > 1):
            members.add(sigma)
    return frozenset(members)


# ---------------------------------------------------------------------------
# local indices: the chain-level Hopf trace near each fixed component

def local_indices(spec) -> list:
    """index(Z) = sum of (-1)^dim sigma E[sigma, sigma] over the base
    simplices sigma that meet Z, per fixed component Z in order, where
    E = self_map_endomorphism(spec).  No normal data enters.  A closed
    simplex meets Z when it shares a vertex with it; one that meets two
    components is refused, since only a subdivision separates them."""
    endo = self_map_endomorphism(spec)
    near = [frozenset().union(*comp.members) for comp in fixed_components(spec)]
    indices = [Fraction(0)] * len(near)
    for k, basis in enumerate(endo.source.bases):
        columns = endo.matrices[k].columns
        for j, sigma in enumerate(basis):
            met = [i for i, vertices in enumerate(near) if sigma & vertices]
            if len(met) > 1:
                raise DegenerateInputError(
                    f"simplex {canonical_tuple(sigma)} meets fixed components "
                    f"{met}; subdivide the base complex"
                )
            if met:
                indices[met[0]] += (-1) ** k * columns[j].get(j, 0)
    return indices


# ---------------------------------------------------------------------------
# supported global trace by restricting the problem to the support's closure

def global_trace_by_restriction(p) -> Fraction:
    """Trace of the problem's map on (closure, closure minus support): a
    second self-map spec on the closure, with its own subdivision tower,
    taken relative to the boundary."""
    spec = p.spec
    base = spec.base
    if p.support is None or p.support.members == base.simplices:
        return lefschetz_number(self_map_endomorphism(spec))
    support = p.support
    closed = closure(support)
    boundary = closed.members - support.members
    for cell in boundary:
        if len(cell) > 1:
            for v in cell:
                if (cell - {v}) in support.members:
                    raise DegenerateInputError(
                        "support is not locally closed: a face of a missing "
                        "cell lies inside it"
                    )
    if not spec.preserves_subcomplex(closed.members):
        raise DegenerateInputError("support closure is not map-invariant")
    sub_cells = closed.members
    sub = induced_subcomplex(base, sub_cells)
    source = spec.source_complex()
    carrier = spec.carrier()
    restricted_map = {}
    for w in source.vertices:
        if carrier[frozenset([w])] in sub_cells:
            restricted_map[w] = spec.vertex_map[w]
    sub_spec = SelfMapSpec.build(sub, spec.level, restricted_map)
    if boundary and not sub_spec.preserves_subcomplex(frozenset(boundary)):
        raise DegenerateInputError(
            "support boundary is not map-invariant; the relative trace "
            "is undefined"
        )
    endo = self_map_endomorphism(
        sub_spec, relative_to=frozenset(boundary) if boundary else None
    )
    return lefschetz_number(endo)


# ---------------------------------------------------------------------------
# dense linear algebra: kernels and exact solves by row echelon form

def apply(matrix: RationalMatrix, vec: list) -> list:
    return [sum(a * b for a, b in zip(row, vec)) for row in matrix.rows]


def null_space(matrix: RationalMatrix) -> list:
    """Basis of {x : Ax = 0} as a list of Fraction column vectors."""
    n = matrix.ncols
    if n == 0:
        return []
    if matrix.nrows == 0:
        return [
            [Fraction(1 if i == j else 0) for i in range(n)] for j in range(n)
        ]
    work, pivots = row_echelon([list(r) for r in matrix.rows])
    pivot_set = set(pivots)
    free_cols = [j for j in range(n) if j not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row_idx, pcol in enumerate(pivots):
            vec[pcol] = -work[row_idx][free]
        basis.append(vec)
    return basis


def solve(matrix: RationalMatrix, rhs: list):
    """Solve Ax = b exactly.

    Returns (particular, null_basis) or None when inconsistent.
    """
    m, n = matrix.nrows, matrix.ncols
    aug = [list(row) + [Fraction(b)] for row, b in zip(matrix.rows, rhs)]
    if m == 0:
        return [Fraction(0)] * n, null_space(matrix)
    work, pivots = row_echelon(aug)
    for row_idx in range(len(pivots), m):
        if work[row_idx][n] != 0:
            return None
    if pivots and pivots[-1] == n:
        return None
    particular = [Fraction(0)] * n
    for row_idx, pcol in enumerate(pivots):
        particular[pcol] = work[row_idx][n]
    return particular, null_space(matrix)


# ---------------------------------------------------------------------------
# dense chain engine: the same chain complexes, chain maps and traces as
# lefscalc.homology, by dense matrices and a fresh solve per cycle

@dataclass(frozen=True, eq=False)
class DenseChainComplex:
    bases: tuple
    index: tuple
    boundaries: tuple  # RationalMatrix per degree; boundaries[0] is 0 x n_0

    def basis_size(self, k: int) -> int:
        return len(self.bases[k]) if 0 <= k < len(self.bases) else 0


@dataclass(frozen=True, eq=False)
class DenseChainMap:
    source: DenseChainComplex
    target: DenseChainComplex
    matrices: tuple

    def degree_matrix(self, k: int) -> RationalMatrix:
        if 0 <= k < len(self.matrices):
            return self.matrices[k]
        return RationalMatrix.zeros(
            self.target.basis_size(k), self.source.basis_size(k)
        )


def _grid(rows: int, cols: int) -> list:
    return [[Fraction(0)] * cols for _ in range(rows)]


def dense_chain_complex(space, dropped=frozenset()) -> DenseChainComplex:
    require_valid(space)
    bases = [
        tuple(s for s in space.k_cells(k) if s not in dropped)
        for k in range(space.dim + 1)
    ]
    while bases and not bases[-1]:
        bases.pop()
    index = tuple({s: i for i, s in enumerate(b)} for b in bases)
    boundaries = [RationalMatrix.zeros(0, len(bases[0]))] if bases else []
    for k in range(1, len(bases)):
        grid = _grid(len(bases[k - 1]), len(bases[k]))
        for j, s in enumerate(bases[k]):
            for i, v in enumerate(canonical_tuple(s)):
                row = index[k - 1].get(s - {v})
                if row is not None:
                    grid[row][j] += Fraction(-1) ** i
        boundaries.append(RationalMatrix(tuple(map(tuple, grid)), len(bases[k])))
    for k in range(2, len(bases)):
        product = matmul(boundaries[k - 1], boundaries[k])
        if any(x != 0 for row in product.rows for x in row):
            raise DegenerateInputError("boundary of boundary is nonzero")
    return DenseChainComplex(tuple(bases), index, tuple(boundaries))


def dense_chain_map(source, target, matrices) -> DenseChainMap:
    """Pads missing degrees with zeros and checks df = fd."""
    degrees = max(len(source.bases), len(target.bases))
    mats = list(matrices[:degrees]) + [
        RationalMatrix.zeros(target.basis_size(k), source.basis_size(k))
        for k in range(len(matrices), degrees)
    ]
    cm = DenseChainMap(source, target, tuple(mats))
    for k in range(1, degrees):
        zero = RationalMatrix.zeros(target.basis_size(k - 1), source.basis_size(k))
        lhs = (
            matmul(target.boundaries[k], cm.degree_matrix(k))
            if k < len(target.boundaries) else zero
        )
        rhs = (
            matmul(cm.degree_matrix(k - 1), source.boundaries[k])
            if k < len(source.boundaries) else zero
        )
        if lhs.rows != rhs.rows:
            raise DegenerateInputError(
                f"chain map fails to commute with the boundary in degree {k}"
            )
    return cm


def dense_chain_map_of(m) -> DenseChainMap:
    source = dense_chain_complex(m.source)
    target = dense_chain_complex(m.target)
    matrices = []
    for k in range(len(source.bases)):
        grid = _grid(target.basis_size(k), source.basis_size(k))
        for j, s in enumerate(source.bases[k]):
            images = [m.vertex_map[v] for v in canonical_tuple(s)]
            if len(set(images)) != len(images):
                continue
            keys = [vertex_key(u) for u in images]
            inversions = sum(
                1 for a in range(len(keys)) for b in range(a + 1, len(keys))
                if keys[a] > keys[b]
            )
            grid[target.index[k][frozenset(images)]][j] += Fraction(-1) ** inversions
        matrices.append(RationalMatrix(tuple(map(tuple, grid)), source.basis_size(k)))
    return dense_chain_map(source, target, matrices)


def dense_subdivision_chain_map(space) -> DenseChainMap:
    source = dense_chain_complex(space)
    target = dense_chain_complex(subdivided_complex(space, 1)[0])
    memo = {}

    def sd_chain(ordered: tuple) -> dict:
        if ordered not in memo:
            if len(ordered) == 1:
                memo[ordered] = {frozenset([(ordered[0],)]): Fraction(1)}
            else:
                out = {}
                for i in range(len(ordered)):
                    for cell, coeff in sd_chain(ordered[:i] + ordered[i + 1:]).items():
                        coned = cell | {ordered}
                        sign = Fraction(-1) ** (i + len(cell))
                        out[coned] = out.get(coned, Fraction(0)) + coeff * sign
                memo[ordered] = out
        return memo[ordered]

    matrices = []
    for k in range(len(source.bases)):
        grid = _grid(target.basis_size(k), source.basis_size(k))
        for j, s in enumerate(source.bases[k]):
            for cell, coeff in sd_chain(canonical_tuple(s)).items():
                grid[target.index[k][cell]][j] += coeff
        matrices.append(RationalMatrix(tuple(map(tuple, grid)), source.basis_size(k)))
    return dense_chain_map(source, target, matrices)


def dense_compose(outer: DenseChainMap, inner: DenseChainMap) -> DenseChainMap:
    degrees = max(len(outer.matrices), len(inner.matrices))
    return dense_chain_map(
        inner.source,
        outer.target,
        [
            matmul(outer.degree_matrix(k), inner.degree_matrix(k))
            for k in range(degrees)
        ],
    )


def dense_endomorphism(spec, dropped=frozenset()) -> DenseChainMap:
    """(map_* o sd^level_*) on C_*(base), projected onto C_*(base, dropped)."""
    endo = dense_chain_map_of(spec.as_map())
    complexes = [spec.base]
    for _ in range(spec.level - 1):
        complexes.append(subdivided_complex(complexes[-1], 1)[0])
    for space in reversed(complexes[: spec.level]):
        endo = dense_compose(endo, dense_subdivision_chain_map(space))
    if not dropped:
        return endo
    full = dense_chain_complex(spec.base)
    quotient = dense_chain_complex(spec.base, dropped)
    matrices = []
    for k in range(len(quotient.bases)):
        keep = [full.index[k][s] for s in quotient.bases[k]]
        rows = endo.degree_matrix(k).rows
        matrices.append(
            RationalMatrix(tuple(tuple(rows[r][c] for c in keep) for r in keep), len(keep))
        )
    return dense_chain_map(quotient, quotient, matrices)


def dense_betti(cc: DenseChainComplex) -> list:
    return [
        len(null_space(cc.boundaries[k]))
        - (rank(cc.boundaries[k + 1]) if k + 1 < len(cc.boundaries) else 0)
        for k in range(len(cc.bases))
    ]


def dense_hopf_trace(endo: DenseChainMap) -> Fraction:
    return sum(
        (Fraction(-1) ** k * trace(endo.degree_matrix(k))
         for k in range(len(endo.source.bases))),
        Fraction(0),
    )


def dense_homology_trace(endo: DenseChainMap, k: int) -> Fraction:
    """A cycle basis is split into boundary part plus a complement; each
    complement vector's image is solved back in that basis and the diagonal
    coefficients are summed."""
    cc = endo.source
    if cc.basis_size(k) == 0:
        return Fraction(0)
    cycles = null_space(cc.boundaries[k])
    boundary_cols = []
    if k + 1 < len(cc.boundaries):
        bmat = cc.boundaries[k + 1]
        _, pivots = row_echelon([list(r) for r in bmat.rows])
        cols = transpose(bmat).rows
        boundary_cols = [list(cols[j]) for j in pivots]
    combined = boundary_cols + cycles
    if not combined:
        return Fraction(0)
    _, pivots = row_echelon([list(r) for r in zip(*combined)])
    chosen = [j for j in pivots if j >= len(boundary_cols)]
    if not chosen:
        return Fraction(0)
    rep = RationalMatrix(tuple(zip(*(boundary_cols + [combined[j] for j in chosen]))))
    total = Fraction(0)
    for pos, j in enumerate(chosen):
        solved = solve(rep, apply(endo.degree_matrix(k), combined[j]))
        if solved is None:
            raise DegenerateInputError(
                "image of a cycle left the cycle space; not a chain map"
            )
        total += solved[0][len(boundary_cols) + pos]
    return total
