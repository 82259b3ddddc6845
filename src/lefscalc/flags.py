"""Cell models of complex flag manifolds and a worked fixed-locus example.

The full flag manifold of C^n is covered by n! affine cells indexed by
permutations, the cell of w having complex dimension equal to the number
of inversions of w.  We keep permutations in one-line notation as tuples
of 1..n and name cells by the digit string, so the big cell of Fl(C^3)
is "321".

For a diagonalizable matrix with distinct eigenvalue blocks of sizes
(n_1, ..., n_r) the fixed flags split into n!/(n_1!...n_r!) connected
components, one per arrangement of block labels along the flag steps,
each a product of smaller flag manifolds.

The worked example treats Fl(C^3) with eigenvalues (a, a, b): three fixed
components, each a Riemann sphere, met against the complement V of the
open big cell.  The intersection pattern is derived from exact polynomial
conditions in both affine charts of each sphere, never tabulated by hand.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache, partial

from .complexes import Cell, CellSpace, CellularSubset
from .errors import DegenerateInputError, shown
from .euler import ConstructibleFunction, chi_c, euler_integral, restrict
from .exact import (
    GaussianRational,
    RationalPolynomial,
    parse_integer,
    parse_rational,
    signed_sum,
)
from .records import Record, Value, require


# ---------------------------------------------------------------------------
# permutations and the closure order on cells

def permutations_of(n: int) -> list:
    return sorted(itertools.permutations(range(1, n + 1)))


def inversion_count(perm: tuple) -> int:
    n = len(perm)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
    )


def longest_element(n: int) -> tuple:
    return tuple(range(n, 0, -1))


@lru_cache(maxsize=1 << 16)  # room for every permutation of up to 8 letters
def _dot_vector(perm: tuple) -> int:
    """For each prefix length i < n and threshold 2 <= j <= n, in that
    order: how many of the first i entries of perm are >= j, packed into
    one int, one field of _field_width(n) bits per count, lowest first."""
    n = len(perm)
    width = _field_width(n)
    counts = [0] * (n + 1)  # counts[j]: prefix entries >= j
    packed = shift = 0
    for x in perm[: n - 1]:
        for j in range(2, n + 1):
            if x >= j:
                counts[j] += 1
        for c in counts[2:]:
            packed |= c << shift
            shift += width
    return packed


def _field_width(n: int) -> int:
    """Bits per dot count: a count is at most n - 1 < 2^(width - 1), so
    the top bit of every field is free to guard it."""
    return n.bit_length() + 1


@lru_cache(maxsize=16)
def _guard(n: int) -> int:
    """The packed word with only each field's top (guard) bit set.

    a's counts are all at most b's exactly when
    ((b | guard) - a) & guard == guard: each field of the difference holds
    2^(width-1) + b_i - a_i >= 1, so no borrow crosses a field, and its
    guard bit survives exactly when b_i >= a_i (Lamport, "Multiple byte
    processing with full-word instructions", CACM 1975).
    """
    width = _field_width(n)
    return sum(1 << (width * k + width - 1) for k in range((n - 1) ** 2))


def _permutation(perm, n=None) -> tuple:
    """The one reader of a permutation argument, in one-line notation: a
    tuple or list of ints, not bools, holding each of 1..len(perm) once,
    and of n letters where n is given."""
    if isinstance(perm, (tuple, list)):
        ints = all(isinstance(x, int) and not isinstance(x, bool) for x in perm)
        if ints and sorted(perm) == list(range(1, len(perm) + 1)):
            if n is None or len(perm) == n:
                return tuple(perm)
            raise DegenerateInputError(f"{tuple(perm)} is not a permutation of the model")
    raise DegenerateInputError(f"not a permutation: {shown(perm)}")


def bruhat_leq(a: tuple, b: tuple) -> bool:
    """Closure order: the cell of a lies in the closure of the cell of b.

    Dot criterion: for every prefix length i and threshold j, the prefix
    of a contains at most as many entries >= j as the prefix of b does.
    Each permutation's counts are computed once, packed into one int, and
    all of them are compared by one integer test.
    """
    a, b = _permutation(a), _permutation(b)
    if len(a) != len(b):
        raise DegenerateInputError("permutations of different sizes")
    guard = _guard(len(a))
    return ((_dot_vector(b) | guard) - _dot_vector(a)) & guard == guard


def perm_name(perm: tuple) -> str:
    return "".join(str(x) for x in perm)


@lru_cache(maxsize=16)
def _perm_cells(n: int) -> tuple:
    """(name, real dimension) of the cell of each permutation of n
    letters, in permutations_of(n) order."""
    return tuple((perm_name(w), 2 * inversion_count(w)) for w in permutations_of(n))


@lru_cache(maxsize=16)
def _dot_vectors(n: int) -> tuple:
    """The packed dot counts of each permutation of n letters, in
    permutations_of(n) order."""
    return tuple(map(_dot_vector, permutations_of(n)))


MAX_FLAG_N = 6
_flag_size = partial(parse_integer, what="flag size n", least=1, most=MAX_FLAG_N)


class BruhatCellSpace(Record):
    """Cell space of a full flag manifold together with its indexing.
    perms: the sorted permutation tuples, permutations_of(n), in the order
    in which _perm_cells(n) lists their cells."""

    __slots__ = _fields = ("n", "space", "perms")
    noun = "a Bruhat cell space"


def flag_cellspace(n: int) -> BruhatCellSpace:
    n = _flag_size(n)
    # The names are distinct, and listed in CellSpace.build's order: they
    # are strings of n single digits in permutations_of order.
    space = CellSpace(tuple([Cell(name, dim, "flag") for name, dim in _perm_cells(n)]))
    return BruhatCellSpace(n, space, tuple(permutations_of(n)))


def schubert_subset(
    model: BruhatCellSpace, perm: tuple, closed: bool = True
) -> CellularSubset:
    """The cell of perm, or its closure in the Bruhat order: the cells
    whose packed dot counts pass the test of _guard against perm's.  The
    names are the model's own, so no reader re-reads them."""
    model = require(model, BruhatCellSpace, "schubert_subset")
    perm = _permutation(perm, model.n)
    if closed:
        guard = _guard(model.n)
        top = _dot_vector(perm) | guard
        members = frozenset([
            name
            for dots, (name, _) in zip(_dot_vectors(model.n), _perm_cells(model.n))
            if (top - dots) & guard == guard
        ])
    else:
        members = frozenset([perm_name(perm)])
    return CellularSubset(model.space, members)


def open_cell_complement(model: BruhatCellSpace, perm=None) -> CellularSubset:
    """Complement of one open cell; by default of the big cell.

    For the big cell this is the union of all proper closed cells, the
    boundary divisor the worked example traces against.
    """
    model = require(model, BruhatCellSpace, "open_cell_complement")
    perm = longest_element(model.n) if perm is None else _permutation(perm, model.n)
    members = {perm_name(w) for w in model.perms if w != perm}
    return CellularSubset.of(model.space, members)


# ---------------------------------------------------------------------------
# fixed loci of diagonal actions

def block_words(blocks: tuple) -> list:
    """Distinct arrangements of block labels, one per fixed component."""
    letters = []
    for label, size in enumerate(blocks):
        letters.extend([label] * size)
    return sorted(set(itertools.permutations(letters)))


def fixed_component_count(blocks: tuple) -> int:
    """len(block_words(blocks)), counted without listing the words: the
    multinomial n!/(n_1!...n_r!)."""
    count = math.factorial(sum(blocks))
    for size in blocks:
        count //= math.factorial(size)
    return count


def fixed_locus_cellspace(n: int, blocks) -> CellSpace:
    """Cell model of the fixed flags of a block-diagonal matrix.

    blocks, a tuple or list, are the eigenvalue multiplicities; each
    component is a product of flag manifolds of the block sizes and is
    labeled c0, c1, ... in the lexicographic order of its arrangement word.
    """
    n = _flag_size(n)
    if not isinstance(blocks, (tuple, list)):
        raise DegenerateInputError(f"block sizes must be a sequence, got {shown(blocks)}")
    blocks = tuple(parse_integer(b, "block size", least=1) for b in blocks)
    if sum(blocks) != n:
        raise DegenerateInputError(f"block sizes {blocks} do not partition {n}")
    # every component has the same cells: (id suffix, dim) per factor cell,
    # in string order, since each factor's names are digit strings of one
    # length listed in permutations_of order
    factor_cells = [
        ("|".join(name for name, _ in combo), sum(dim for _, dim in combo))
        for combo in itertools.product(*map(_perm_cells, blocks))
    ]
    # The ids are distinct by construction, and listed in CellSpace.build's
    # order: ids of two components compare as their "label:" prefixes do
    # (":" sorts after every digit, so "c10:" comes before "c1:"), and ids
    # of one component as their suffixes.
    labels = sorted(
        (f"c{k}" for k in range(fixed_component_count(blocks))),
        key=lambda label: label + ":",
    )
    return CellSpace(tuple([
        Cell(f"{label}:{suffix}", dim, label)
        for label in labels
        for suffix, dim in factor_cells
    ]))


# ---------------------------------------------------------------------------
# the worked example: Fl(C^3), eigenvalues (a, a, b)

FAMILY_NAMES = ("lines_in_plane", "lines_with_axis", "planes_with_axis")


class FamilyPattern(Value):
    """How one fixed sphere meets the big-cell complement: its component
    label (c0, c1, c2), the geometric name of the sphere, whether the whole
    sphere lies in the divisor, and the number of intersection points when
    it does not."""

    __slots__ = _fields = ("label", "family", "contained", "points")

    def chi(self) -> int:
        return 2 if self.contained else self.points


def _poly_vec(entries) -> tuple:
    return tuple(
        e if isinstance(e, RationalPolynomial) else RationalPolynomial.constant(e)
        for e in entries
    )


def _det3(c0, c1, c2) -> RationalPolynomial:
    a, d, g = c0
    b, e, h = c1
    c, f, i = c2
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


_T = RationalPolynomial.of([0, 1])
_E1 = _poly_vec([1, 0, 0])


def _chart_conditions(line, plane_basis) -> tuple:
    """(line lies in the reference 2-plane, reference axis lies in the plane).

    The first condition is the vanishing of the line generator's last
    coordinate, the second the vanishing of det(e1 | p1 | p2); together
    they cut out the complement of the big cell.
    """
    q_axis = line[2]
    p1, p2 = plane_basis
    q_plane = _det3(_E1, p1, p2)
    return q_axis, q_plane


def _family_charts(family: str) -> tuple:
    """Finite chart (parameter t) and opposite chart (parameter s = 1/t)."""
    t = _T
    if family == "lines_in_plane":
        finite = (_poly_vec([1, t, 0]), (_poly_vec([1, 0, 0]), _poly_vec([0, 1, 0])))
        opposite = (_poly_vec([t, 1, 0]), (_poly_vec([1, 0, 0]), _poly_vec([0, 1, 0])))
    elif family == "lines_with_axis":
        finite = (_poly_vec([1, t, 0]), (_poly_vec([1, t, 0]), _poly_vec([0, 0, 1])))
        opposite = (_poly_vec([t, 1, 0]), (_poly_vec([t, 1, 0]), _poly_vec([0, 0, 1])))
    elif family == "planes_with_axis":
        finite = (_poly_vec([0, 0, 1]), (_poly_vec([1, t, 0]), _poly_vec([0, 0, 1])))
        opposite = (_poly_vec([0, 0, 1]), (_poly_vec([t, 1, 0]), _poly_vec([0, 0, 1])))
    else:
        raise DegenerateInputError(f"unknown family {shown(family)}")
    return finite, opposite


def _distinct_root_count(polys) -> int:
    """Distinct complex roots of the product of the nonzero polynomials."""
    product = RationalPolynomial.constant(1)
    for q in polys:
        if not q.is_zero():
            product = product * q
    return product.squarefree_part().degree


def derive_intersection_pattern() -> list:
    """Exact chart computation of how each fixed sphere meets the divisor.

    Each sphere carries two affine charts; a sphere is contained in the
    divisor exactly when one of the two cutting conditions vanishes
    identically, and otherwise meets it in the distinct roots of the
    product condition plus possibly the point at infinity.
    """
    patterns = []
    words = block_words((2, 1))
    family_of_word = {
        (0, 0, 1): "lines_in_plane",
        (0, 1, 0): "lines_with_axis",
        (1, 0, 0): "planes_with_axis",
    }
    for k, word in enumerate(words):
        family = family_of_word[word]
        (line_f, plane_f), (line_o, plane_o) = _family_charts(family)
        qa, qb = _chart_conditions(line_f, plane_f)
        ra, rb = _chart_conditions(line_o, plane_o)
        contained = False
        for q, r in ((qa, ra), (qb, rb)):
            if q.is_zero() or r.is_zero():
                if not (q.is_zero() and r.is_zero()):
                    raise DegenerateInputError(
                        "chart conditions disagree about containment"
                    )
                contained = True
        if contained:
            patterns.append(FamilyPattern(f"c{k}", family, True, 0))
            continue
        finite = _distinct_root_count([qa, qb])
        at_infinity = ra(Fraction(0)) == 0 or rb(Fraction(0)) == 0
        patterns.append(
            FamilyPattern(f"c{k}", family, False, finite + int(at_infinity))
        )
    return patterns


class Example39Problem(Record):
    """The fixed spheres' cells, the support of the sheaf on them, a
    FamilyPattern per component in label order, and ratio, the surrogate
    for the eigenvalue ratio b/a."""

    __slots__ = _fields = ("space", "support", "patterns", "ratio")

    def component_labels(self) -> list:
        return [p.label for p in self.patterns]

    def plane_family_label(self) -> str:
        """Component that is the closure of the vanishing-coordinates chart."""
        for p in self.patterns:
            if p.family == "lines_in_plane":
                return p.label
        raise DegenerateInputError("derivation lost the plane family")

    def contribution(self, label: str) -> GaussianRational:
        members = {c.ident for c in self.space.cells if c.component == label}
        if not members:
            raise DegenerateInputError(f"unknown component label {shown(label)}")
        on_support = ConstructibleFunction.indicator(self.space, self.support)
        return euler_integral(restrict(on_support, members))

    def contributions(self) -> list:
        return [(p.label, p.family, self.contribution(p.label)) for p in self.patterns]

    def total(self) -> GaussianRational:
        return signed_sum((1, value) for _, _, value in self.contributions())


def _component_cells(pattern: FamilyPattern) -> tuple:
    """Cell decomposition of one fixed sphere refining its divisor slice.

    A contained sphere keeps the point-plus-cell decomposition; a sphere
    met in k points gets k marked points, k-1 separating arcs, and one
    2-cell, so either way the sphere's Euler characteristic is 2.
    """
    label = pattern.label
    if pattern.contained:
        cells = (Cell(f"{label}:d0", 0, label), Cell(f"{label}:d2", 2, label))
        in_divisor = {c.ident for c in cells}
        return cells, in_divisor
    k = pattern.points
    if k <= 0:
        raise DegenerateInputError(
            f"component {label} misses the divisor; the example expects "
            "every fixed sphere to meet it"
        )
    cells = [Cell(f"{label}:v{j}", 0, label) for j in range(k)]
    cells += [Cell(f"{label}:a{j}", 1, label) for j in range(k - 1)]
    cells.append(Cell(f"{label}:d2", 2, label))
    in_divisor = {f"{label}:v{j}" for j in range(k)}
    return tuple(cells), in_divisor


def example_3_9(ratio=Fraction(2)) -> Example39Problem:
    """Fixed spheres of diag(a, a, b) on Fl(C^3) traced against the divisor.

    The intersection pattern is re-derived from the chart polynomials on
    every call.  The contributions are unsigned Euler integrals: normal to
    each sphere the map scales C^2 by the ratio, and a complex-linear A has
    det(I - A) = |det_C(I - A)|^2 > 0, so every sign is +1.
    """
    ratio = parse_rational(ratio)
    if ratio in (0, 1):
        raise DegenerateInputError(
            "eigenvalue ratio must differ from 0 and 1 for an isolated locus"
        )
    patterns = tuple(derive_intersection_pattern())
    all_cells = []
    support = set()
    for pattern in patterns:
        cells, in_divisor = _component_cells(pattern)
        all_cells.extend(cells)
        support |= in_divisor
    space = CellSpace.build(all_cells)
    for pattern in patterns:
        members = {c.ident for c in all_cells if c.component == pattern.label}
        if chi_c(CellularSubset.of(space, members)) != 2:
            raise DegenerateInputError(
                f"component {pattern.label} does not assemble to a sphere"
            )
    return Example39Problem(space, CellularSubset.of(space, support), patterns, ratio)
