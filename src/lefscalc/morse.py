"""Morse multiplicities of constructible functions and cycle tables.

For a linear-on-cells height functional ell that separates the ends of
every edge, each simplex has a unique ell-maximal vertex, and the
multiplicity attached to a vertex v is the lower-star sum

    m(v) = sum over simplices sigma containing v, all of whose other
           vertices sit strictly below v, of (-1)^dim(sigma) * phi(sigma).

m(v) is the stalkwise trace of sections supported in {ell >= ell(v)}, and
summing the table recovers the Euler integral of phi because every simplex
is counted exactly once, at its top vertex.

The cycle table of a traced problem localizes this to one fixed component
and rescales it by sgn det(I - A), the sign of the component's signed
local term.  A regime must justify the table:

* spectrum-below-one: no real eigenvalue of the normal matrix is >= 1,
  which forces det(I - A) > 0;
* complex-analytic: the caller asserts a complex model, no gap needed; the
  real form of a complex-linear map has det(I - A) = |det(I - A_C)|^2 > 0,
  so det(I - A) < 0 contradicts the assertion and is refused;
* signed-non-characteristic: the caller asserts transversality.

Without a justifying regime the table is refused rather than silently
reported.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING

from .complexes import (
    SimplicialComplex,
    canonical_tuple,
    cell_sort_key,
    induced_subcomplex,
    read_table,
    require_simplicial,
)
from .errors import DegenerateInputError, GenericityError, NoApplicableRegimeError
from .euler import ConstructibleFunction, restrict
from .exact import GaussianRational, parse_rational, signed_sum, signed_sums
from .records import Record, Value, require

if TYPE_CHECKING:  # the fixed-point layer loads with the first cycle table
    from .fixedpoint import FixedComponent, TracedProblem


class VertexFunctional(Value):
    """Exact rational height values, one per vertex."""

    __slots__ = _fields = ("values",)
    noun = "a vertex functional"

    @staticmethod
    def of(space: SimplicialComplex, table) -> "VertexFunctional":
        """Heights keyed by the vertices of `space`, each key read by
        space.vertex."""
        space = require_simplicial(space, "VertexFunctional.of")
        given = read_table(table, "heights for vertex", space.vertex)
        values = {v: parse_rational(x) for v, x in given.items()}
        _require_defined(space, values)
        return VertexFunctional(values)

    def __call__(self, v) -> Fraction:
        return self.values[v]

    def negated(self) -> "VertexFunctional":
        return VertexFunctional({v: -x for v, x in self.values.items()})


def _require_defined(space: SimplicialComplex, values: dict) -> None:
    missing = [v for v in space.vertices if v not in values]
    if missing:
        raise DegenerateInputError(f"functional undefined on vertices {missing[:4]}")


def genericity_check(space: SimplicialComplex, ell: VertexFunctional) -> list:
    """Edges whose two ends take the same value, as canonical tuples in
    edge order; empty means generic.  A functional missing a vertex is
    refused, naming the missing vertices in vertex order."""
    space = require_simplicial(space, "genericity_check")
    ell = require(ell, VertexFunctional, "genericity_check")
    _require_defined(space, ell.values)
    return _tied_edges(space.simplices, ell.values)


def _tied_edges(cells, values) -> list:
    ties = []
    for edge in cells:
        if len(edge) == 2:
            a, b = edge
            if values[a] == values[b]:
                ties.append(edge)
    ties.sort(key=cell_sort_key)
    return [canonical_tuple(edge) for edge in ties]


def _refuse_ties(ties: list) -> None:
    if ties:
        raise GenericityError(
            f"functional is degenerate on edges {ties[:4]}", edges=ties
        )


def morse_multiplicity(
    phi: ConstructibleFunction, ell: VertexFunctional, v
) -> GaussianRational:
    """Lower-star multiplicity of phi at v for the height ell.  Only the
    cells at v are read, so only the edges at v must separate their ends."""
    phi = require(phi, ConstructibleFunction, "morse_multiplicity")
    ell = require(ell, VertexFunctional, "morse_multiplicity")
    space = require_simplicial(phi.parent, "morse_multiplicity")
    v = space.vertex(v)
    values = ell.values
    _require_defined(space, values)
    star = [cell for cell in space.simplices if v in cell]
    _refuse_ties(_tied_edges(star, values))
    height = ell(v)
    return signed_sum(
        ((-1) ** (len(cell) - 1), phi.values[cell])
        for cell in star
        if cell in phi.values and all(values[w] < height for w in cell if w != v)
    )


class MultiplicityTable(Record):
    """entries: vertex -> GaussianRational, every vertex present."""

    __slots__ = _fields = ("space", "entries")

    def __init__(self, space, entries):
        Record.__init__(self, require_simplicial(space, "MultiplicityTable"), entries)

    def total(self) -> GaussianRational:
        return signed_sum((1, value) for value in self.entries.values())

    def sorted_entries(self) -> list:
        """(vertex, multiplicity) in vertex_key order, which is the order
        of space.vertices, so nothing is sorted."""
        entries = self.entries
        return [(v, entries[v]) for v in self.space.vertices if v in entries]

    def scaled(self, c) -> "MultiplicityTable":
        return MultiplicityTable(
            self.space, {v: x * Fraction(c) for v, x in self.entries.items()}
        )


def _height_keys(heights: list) -> list:
    """Sort keys with the order and the ties of the heights: the heights
    scaled to ints by the lcm of their denominators.  The lcm is taken in
    pairs, level by level, so that the operands grow together: on 673
    distinct 20-bit primes, folding them one at a time into a growing lcm
    took four times as long."""
    denominators = {x.denominator for x in heights}
    level = list(denominators)
    while len(level) > 2:
        level = [lcm(*level[i:i + 2]) for i in range(0, len(level), 2)]
    scale = lcm(*level)
    factor = {den: scale // den for den in denominators}
    return [x.numerator * factor[x.denominator] for x in heights]


def cc_table(phi: ConstructibleFunction, ell: VertexFunctional) -> MultiplicityTable:
    """Full multiplicity table of phi: one Morse multiplicity per vertex.

    This realizes the characteristic-cycle data of phi as measured by the
    covector field of ell; the total is the Euler integral of phi.

    The heights are scaled to ints once, by the lcm of their denominators
    (_height_keys); a positive scale keeps their order and their ties.  The
    vertices are ranked by one stable sort on those keys: they are listed
    in vertex_key order, so the rank order is (ell, vertex_key), and each
    cell's top vertex is the one of largest rank.  Equal heights are
    neighbours in that order, so the edges are scanned for ties only when
    two neighbours are equal.  One pass of exact.signed_sums over phi sums
    each cell's signed value into its top vertex's rank; an empty lower
    star is GZERO.
    """
    phi = require(phi, ConstructibleFunction, "cc_table")
    ell = require(ell, VertexFunctional, "cc_table")
    space = require_simplicial(phi.parent, "cc_table")
    values = ell.values
    _require_defined(space, values)
    vertices = space.vertices
    keys = _height_keys([values[v] for v in vertices])
    by_height = sorted(range(len(vertices)), key=keys.__getitem__)
    if any(keys[a] == keys[b] for a, b in zip(by_height, by_height[1:])):
        _refuse_ties(_tied_edges(space.simplices, values))
    rank = {vertices[i]: r for r, i in enumerate(by_height)}
    sums = signed_sums(len(vertices), (
        (max(map(rank.__getitem__, cell)), (-1) ** (len(cell) - 1), value)
        for cell, value in phi.values.items()
    ))  # by rank
    return MultiplicityTable(space, {v: sums[rank[v]] for v in vertices})


def index_sum(phi: ConstructibleFunction, ell: VertexFunctional) -> GaussianRational:
    """Sum of all multiplicities; equals euler_integral(phi)."""
    require(phi, ConstructibleFunction, "index_sum")
    require(ell, VertexFunctional, "index_sum")
    return cc_table(phi, ell).total()


# ---------------------------------------------------------------------------
# cycle tables of traced problems

REGIME_SPECTRUM_BELOW_ONE = "spectrum-below-one"
REGIME_COMPLEX_ANALYTIC = "complex-analytic"
REGIME_SIGNED = "signed-non-characteristic"


class CycleTableReport(Record):
    __slots__ = _fields = ("component", "regime", "sign", "table")

    def total(self) -> GaussianRational:
        return self.table.total()


def _select_regime(p: TracedProblem, comp: FixedComponent) -> str:
    """The regime that justifies the table at one component."""
    if p.complex_model and comp.sign < 0:
        raise NoApplicableRegimeError(
            "det(I - A) < 0 contradicts the complex-model assertion: the real "
            "form of a complex-linear map has det(I - A) > 0"
        )
    if not comp.meets_ray:
        return REGIME_SPECTRUM_BELOW_ONE
    if p.complex_model:
        return REGIME_COMPLEX_ANALYTIC
    if p.non_characteristic:
        return REGIME_SIGNED
    raise NoApplicableRegimeError(
        "normal spectrum meets [1, oo) and neither the complex-model nor "
        "the non-characteristic assertion was supplied"
    )


def lefschetz_cycle_table(
    p: TracedProblem, index: int, ell: VertexFunctional
) -> CycleTableReport:
    """Cycle table of the fixed-point data at one component.

    The table is the component's multiplicity table of the local trace
    function, scaled by sgn det(I - A); its total is the microlocal index.
    """
    from .fixedpoint import component_sign

    ell = require(ell, VertexFunctional, "lefschetz_cycle_table")
    comp = component_sign(p, index)
    regime = _select_regime(p, comp)
    component_complex = induced_subcomplex(p.spec.base, comp.cells)
    _require_defined(component_complex, ell.values)
    phi = restrict(p.local_trace, comp.cells)
    local_phi = ConstructibleFunction(component_complex, phi.values)
    local_ell = VertexFunctional({v: ell(v) for v in component_complex.vertices})
    table = cc_table(local_phi, local_ell).scaled(comp.sign)
    return CycleTableReport(index, regime, comp.sign, table)


def microlocal_index(
    p: TracedProblem, index: int, ell: VertexFunctional
) -> GaussianRational:
    """Total of the cycle table; agrees with the signed local contribution."""
    require(ell, VertexFunctional, "microlocal_index")
    return lefschetz_cycle_table(p, index, ell).total()
