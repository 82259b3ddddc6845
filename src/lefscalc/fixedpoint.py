"""Fixed loci of simplicial self-maps and localization of the global trace.

The geometric fixed set of a self-map spec must be a subcomplex of the
base: a simplex belongs to the fixed subcomplex when every subdivision
vertex it carries is geometrically fixed.  Any other fixed point (a
simplex permuted onto itself, or an affine fixed point in the interior of
some cell) is detected exactly - the fixed-point equations of the affine
map on each top simplex form a rational linear system whose nonnegative
solutions are checked by exact feasibility - and rejected with
FixedPointNotSimplicialError; the remedy is to restate the problem on a
barycentric subdivision.

Localization compares two independent computations:

* global side: the alternating sum of homology traces of
  (map_* o sd^level_*) on C_*(base); for a proper locally closed support,
  of that one endomorphism projected onto the support's cells, which span
  the chains of (closure, closure minus support);
* local side: per fixed component, sgn(det(I - A)) times the Euler
  integral of the local trace function over the component, where A is the
  user-supplied normal matrix of the map at that component.

The two sides agree under hyperbolicity (1 not an eigenvalue of A) with
the expanding directions accounted for by the sign.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .complexes import (
    CellularSubset,
    _unclosed_at,
    canonical_tuple,
    cell_sort_key,
    closure,
    connected_components,
    read_table,
    sd_positions,
    vertex_key,
)
from .errors import (
    DegenerateInputError,
    FixedPointNotSimplicialError,
    NotHyperbolicError,
    shown,
)
from .euler import ConstructibleFunction, euler_integral, restrict
from . import exact
from .exact import (
    GaussianRational,
    RationalMatrix,
    count_real_roots_geq,
    parse_integer,
    signed_sum,
)
from .homology import lefschetz_number, project_endomorphism
from .maps import SelfMapSpec
from .records import Record, Value, require, set_field


class NormalData(Value):
    """One square matrix per fixed component: the differential of the map
    in the directions normal to that component, in any rational basis.
    matrices: a tuple of (component index, RationalMatrix)."""

    __slots__ = _fields = ("matrices",)

    def __init__(self, matrices):
        """Normal data from a table of (component index, matrix) pairs."""
        table = read_table(matrices, "normal matrices for component", _component_index)
        for idx, matrix in table.items():
            if not isinstance(matrix, RationalMatrix):
                table[idx] = matrix = RationalMatrix.of(matrix)
            if not matrix.is_square():
                raise DegenerateInputError(
                    f"normal matrix for component {idx} is not square"
                )
        set_field(self, "matrices", tuple(sorted(table.items())))

    @staticmethod
    def of(entries) -> "NormalData":
        """`entries` if it is a NormalData, else NormalData(entries)."""
        return entries if isinstance(entries, NormalData) else NormalData(entries)

    def matrix_for(self, index: int) -> RationalMatrix | None:
        for idx, matrix in self.matrices:
            if idx == index:
                return matrix
        return None


def _component_index(idx) -> int:
    """A component index of normal data: an int or a decimal string."""
    index = exact.decimal_integer(idx) if isinstance(idx, str) else idx
    if isinstance(index, bool) or not isinstance(index, int):
        raise DegenerateInputError(
            f"normal data names component {shown(idx)}, not an integer"
        )
    return index


class FixedComponent(Record):
    """A fixed component and its normal matrix A, with chi_A(t) = det(tI - A)
    and sign = sgn chi_A(1) = sgn det(I - A), 0 iff 1 is an eigenvalue."""

    _fields = ("cells", "matrix", "char_poly", "sign")

    @cached_property
    def meets_ray(self) -> bool:
        """Does the real spectrum of A meet [1, oo)?  Counted on first read."""
        return count_real_roots_geq(self.char_poly, 1) > 0


class TracedProblem(Record):
    """A self-map plus the sheaf-side data needed for localization.  Each
    field is read once, when the problem is built, by the reader of its
    kind; what needs the fixed locus is refused on first use.

    spec: the self-map, a SelfMapSpec (records.require refuses anything
        else);
    support: locally closed union of cells carrying the constant sheaf, in
        any form CellularSubset.of reads (None means the whole base), kept
        as a CellularSubset;
    traces: optional explicit stalkwise trace values on fixed cells,
        overriding the constant-sheaf default of 1: a table read_table
        reads, kept as {cell key: GaussianRational};
    normal: normal matrices per fixed component, in any form NormalData.of
        reads (omitting the block means every component is
        full-dimensional, d = 0);
    complex_model: caller asserts the problem is the real form of a
        complex-analytic one, so localization needs no spectral gap;
    non_characteristic: caller asserts the graph crosses the conormal
        geometry transversally, enabling the signed regime even when the
        normal spectrum meets [1, oo).  Both flags are bools.
    """

    _fields = (
        "spec", "support", "traces", "normal", "complex_model", "non_characteristic"
    )
    noun = "a traced problem"

    def __init__(
        self,
        spec: SelfMapSpec,
        support=None,
        traces=None,
        normal=None,
        complex_model: bool = False,
        non_characteristic: bool = False,
    ):
        spec = require(spec, SelfMapSpec, "TracedProblem")
        base = spec.base
        if support is not None:
            support = CellularSubset.of(base, support)
        if traces is not None:
            table = read_table(traces, "trace values for cell", base.cell_key)
            traces = {cell: GaussianRational.of(x) for cell, x in table.items()}
        if normal is not None:
            normal = NormalData.of(normal)
        for name, flag in (
            ("complex_model", complex_model), ("non_characteristic", non_characteristic)
        ):
            if not isinstance(flag, bool):
                raise DegenerateInputError(f"{name} must be a boolean, got {shown(flag)}")
        set_field(self, "spec", spec)
        set_field(self, "support", support)
        set_field(self, "traces", traces)
        set_field(self, "normal", normal)
        set_field(self, "complex_model", complex_model)
        set_field(self, "non_characteristic", non_characteristic)
        set_field(self, "_components", {})  # index -> FixedComponent, see component()

    @cached_property
    def fixed_locus(self) -> tuple:
        """(fixed subcomplex, its components), computed once per problem;
        normal data naming any other component is refused here."""
        fixed = fixed_subcomplex(self.spec)
        comps = connected_components(fixed)
        for index, _ in self.normal.matrices if self.normal else ():
            if not 0 <= index < len(comps):
                raise _no_component(f"normal data for component {index}", len(comps))
        return fixed, comps

    @cached_property
    def local_trace(self) -> ConstructibleFunction:
        """The local trace function, computed once per problem."""
        return local_trace_function(self)

    def component(self, index: int) -> FixedComponent:
        """One fixed component and its normal facts, computed once per index."""
        index = parse_integer(index, "component index")
        if index not in self._components:
            comps = self.fixed_locus[1]
            if not 0 <= index < len(comps):
                raise _no_component(f"component index {index}", len(comps))
            matrix = RationalMatrix.zeros(0, 0)
            if self.normal is not None:
                matrix = self.normal.matrix_for(index)
            if matrix is None:
                raise DegenerateInputError(
                    f"normal data present but missing component {index}"
                )
            chi = matrix.char_poly()
            at_one = chi(1)  # det(I - A)
            sign = (at_one > 0) - (at_one < 0)
            self._components[index] = FixedComponent(comps[index], matrix, chi, sign)
        return self._components[index]


def _no_component(what: str, count: int) -> DegenerateInputError:
    """The error for an index that names none of `count` fixed components."""
    if count == 0:
        return DegenerateInputError(f"{what}: the map has no fixed components")
    return DegenerateInputError(f"{what} out of range 0..{count - 1}")


# ---------------------------------------------------------------------------
# the fixed subcomplex


def _assert_fixed_points_are_vertices(spec: SelfMapSpec, signs: dict) -> None:
    """Exact check that the affine map fixes nothing beyond the fixed
    vertices: on each top simplex the fixed points form the cone over the
    fixed-vertex axes iff a certain rational polytope is empty.

    The polytope asks for weights t >= 0 on the simplex's vertices, summing
    to 1 over the moved ones, whose combination of displacements (position
    minus image, one row per base coordinate) is zero.  `signs` holds the
    signs of those rows, one column per moved vertex (a fixed vertex has
    none), by vertex number; they follow from the carrier alone.  The LP
    kernel's sign presolve reads those columns as they are, with no
    right-hand side, and settles most simplices: when it leaves no moved
    vertex live, the weights summing to 1 are a certificate (a coordinate
    in which every moved vertex is displaced the same way already separates
    them).  Only the simplices it leaves open get their exact rows, and are
    solved in cell order.  The top simplices are the generated top cells,
    each with its carrier."""
    sub = spec.subdivision
    undecided = []
    for tau, rho in sub.top_cells():
        columns = [signs[w] for w in tau if w in signs]
        if columns and exact._sign_presolve(columns, {}):
            undecided.append((sub.simplex(tau), tau, rho))
    positions = sd_positions(spec.base)
    zero = Fraction(0)
    for _, tau, rho in sorted(undecided, key=lambda item: cell_sort_key(item[0])):
        displacement = []  # position minus image, one column per vertex
        for w in tau:  # in canonical order
            column = dict(positions[sub.vertices[w]])
            image = spec.images[w]
            column[image] = column.get(image, zero) - 1
            displacement.append(column)
        coords = sorted(set().union(*displacement), key=vertex_key)
        rows = [[column.get(u, zero) for column in displacement] for u in coords]
        rows.append([Fraction(1 if w in signs else 0) for w in tau])
        rhs = [zero] * len(coords) + [Fraction(1)]
        if exact.has_nonneg_solution(rows, rhs):
            raise FixedPointNotSimplicialError(
                "geometric fixed points inside simplex carried by "
                f"{canonical_tuple(rho)} are not vertices; "
                "subdivide the base complex and restate the map"
            )


def fixed_subcomplex(spec: SelfMapSpec) -> CellularSubset:
    """All base simplices on which the map restricts to the identity.

    Raises FixedPointNotSimplicialError when the geometric fixed set is
    larger than the realization of that subcomplex.  Each vertex of
    sd^level is read once, with its carrier, from spec.subdivision.
    """
    spec = require(spec, SelfMapSpec, "fixed_subcomplex")
    signs = {}  # moved vertex number -> signs of its displacement, by coordinate
    moved = set()  # the base cells that carry a moved vertex
    for w, (image, base_cell) in enumerate(zip(spec.images, spec.subdivision.carriers)):
        # w's position is positive exactly on base_cell, and at most 1 at image
        if len(base_cell) > 1 or image not in base_cell:
            signs[w] = column = dict.fromkeys(base_cell, 1)
            column[image] = -1
            moved.add(base_cell)
    _assert_fixed_points_are_vertices(spec, signs)
    # sigma is a member when no face of it carries a moved vertex; by size,
    # that is: sigma carries none and its facets are members
    members = set()
    for sigma in sorted(spec.base.simplices, key=len):
        if sigma not in moved and (
            len(sigma) == 1 or all(sigma - {v} in members for v in sigma)
        ):
            members.add(sigma)
    return CellularSubset(spec.base, frozenset(members))


def fixed_components(spec: SelfMapSpec) -> tuple:
    spec = require(spec, SelfMapSpec, "fixed_components")
    return connected_components(fixed_subcomplex(spec))


# ---------------------------------------------------------------------------
# local trace data and contributions


def local_trace_function(p: TracedProblem) -> ConstructibleFunction:
    """Stalkwise trace on the fixed subcomplex.

    Constant-sheaf model: the indicator of support /\\ fixed subcomplex.
    Explicit traces override individual cells.
    """
    fixed = require(p, TracedProblem, "local_trace_function").fixed_locus[0]
    cells = fixed.members
    if p.support is not None:
        cells &= p.support.members
    values = dict.fromkeys(cells, GaussianRational.of(1))
    for cell, value in (p.traces or {}).items():
        if cell not in fixed.members:
            raise DegenerateInputError(
                f"trace value on {canonical_tuple(cell)}, which is not fixed"
            )
        if value.is_zero():
            values.pop(cell, None)
        else:
            values[cell] = value
    return ConstructibleFunction(p.spec.base, values)


def component_sign(p: TracedProblem, index: int) -> FixedComponent:
    """The component, if its signed term is defined: det(I - A) != 0."""
    comp = require(p, TracedProblem, "component_sign").component(index)
    if comp.sign == 0:
        raise NotHyperbolicError(
            f"det(I - A) = 0 on component {index}; the signed term is undefined"
        )
    return comp


def _signed_term(p: TracedProblem, index: int) -> tuple:
    """(component, integral) of one component's signed term."""
    comp = component_sign(p, index)
    return comp, euler_integral(restrict(p.local_trace, comp.cells))


def local_contribution(p: TracedProblem, index: int) -> GaussianRational:
    """Euler integral of the local trace function over one fixed component:
    the unsigned part of its signed term, so refused by component_sign
    when det(I - A) = 0.

    Equals that component's contribution to the global trace when the
    normal spectrum avoids [1, oo) or the problem is complex-analytic.
    """
    return _signed_term(require(p, TracedProblem, "local_contribution"), index)[1]


def signed_local_contribution(p: TracedProblem, index: int) -> GaussianRational:
    comp, integral = _signed_term(p, index)
    return integral * Fraction(comp.sign)


def hyperbolicity_report(p: TracedProblem) -> list:
    """Per component: is 1 an eigenvalue, does the real spectrum meet
    [1, oo), and the sign of det(I - A)."""
    p = require(p, TracedProblem, "hyperbolicity_report")
    comps = [p.component(index) for index in range(len(p.fixed_locus[1]))]
    return [
        {
            "component": index,
            "cells": len(comp.cells.members),
            "normal_dim": comp.matrix.nrows,
            "one_is_eigenvalue": comp.sign == 0,
            "meets_R_geq_1": comp.meets_ray,
            "sign": comp.sign,
        }
        for index, comp in enumerate(comps)
    ]


# ---------------------------------------------------------------------------
# localization: global trace vs sum of local terms


def _global_trace(p: TracedProblem) -> Fraction:
    """The trace on the support.  Its closure Z and boundary B = Z - support
    are checked invariant on the spec itself: sd^level(Z) is the part of
    sd^level(base) that Z carries."""
    spec, support = p.spec, p.support
    if support is None or support.members == spec.base.simplices:
        return lefschetz_number(spec.endomorphism)
    closed = closure(support).members
    boundary = closed - support.members
    if _unclosed_at(boundary) is not None:
        raise DegenerateInputError(
            "support is not locally closed: a face of a missing "
            "cell lies inside it"
        )
    if not spec.preserves_subcomplex(closed):
        raise DegenerateInputError("support closure is not map-invariant")
    if not spec.preserves_subcomplex(boundary):
        raise DegenerateInputError(
            "support boundary is not map-invariant; the relative trace "
            "is undefined"
        )
    return lefschetz_number(project_endomorphism(spec.endomorphism, support))


def localization_report(p: TracedProblem) -> dict:
    """Global homological trace versus the sum of signed local terms."""
    p = require(p, TracedProblem, "localization_report")
    p.local_trace  # its refusals come first, with or without fixed components
    per_component = []
    terms = []
    for index in range(len(p.fixed_locus[1])):
        comp, integral = _signed_term(p, index)
        terms.append((comp.sign, integral))
        per_component.append(
            {
                "component": index,
                "cells": tuple(canonical_tuple(c) for c in comp.cells.sorted_members()),
                "normal_dim": comp.matrix.nrows,
                "sign": comp.sign,
                "integral": integral,
                "signed_contribution": integral * Fraction(comp.sign),
            }
        )
    global_trace = GaussianRational.of(_global_trace(p))
    total = signed_sum(terms)
    return {
        "global_trace": global_trace,
        "sum_of_local": total,
        "equal": global_trace == total,
        "components": tuple(per_component),
    }
