"""Small named complexes, maps, and traced problems used throughout.

These are the worked examples the verification suite keeps returning to:
a point, an interval, a hexagonal circle and its subdivision, a disk, the
tetrahedral sphere, two cell-space models, and a handful of self-maps
whose fixed-point behavior is known in closed form.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import Cell, CellSpace, SimplicialComplex
from .exact import RationalMatrix
from .fixedpoint import NormalData, TracedProblem
from .maps import SelfMapSpec, SimplicialMap
from .morse import VertexFunctional


def point_complex() -> SimplicialComplex:
    return SimplicialComplex.from_maximal([("p",)])


def interval_complex() -> SimplicialComplex:
    return SimplicialComplex.from_maximal([("a", "b")])


def interval_functional(increasing: bool = True) -> VertexFunctional:
    space = interval_complex()
    if increasing:
        return VertexFunctional.of(space, {"a": 0, "b": 1})
    return VertexFunctional.of(space, {"a": 1, "b": 0})


def _cycle(names) -> SimplicialComplex:
    n = len(names)
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return SimplicialComplex.from_maximal(edges)


HEX_VERTICES = tuple(f"v{i}" for i in range(6))


def hexagon() -> SimplicialComplex:
    return _cycle(HEX_VERTICES)


def twelve_gon() -> SimplicialComplex:
    return _cycle(tuple(f"w{i}" for i in range(12)))


def disk() -> SimplicialComplex:
    """Cone over the hexagon: a triangulated disk with rational coordinates."""
    ring = [
        (Fraction(2), Fraction(0)),
        (Fraction(1), Fraction(2)),
        (Fraction(-1), Fraction(2)),
        (Fraction(-2), Fraction(0)),
        (Fraction(-1), Fraction(-2)),
        (Fraction(1), Fraction(-2)),
    ]
    triangles = [
        ("c", HEX_VERTICES[i], HEX_VERTICES[(i + 1) % 6]) for i in range(6)
    ]
    coords = {"c": (Fraction(0), Fraction(0))}
    coords.update({HEX_VERTICES[i]: ring[i] for i in range(6)})
    base = SimplicialComplex.from_maximal(triangles)
    return SimplicialComplex.build(
        base.vertices,
        base.simplices,
        tuple(coords[v] for v in base.vertices),
    )


def disk_boundary_cells() -> set:
    space = disk()
    return {
        cell
        for cell in space.cell_keys
        if "c" not in cell
    }


def sphere2() -> SimplicialComplex:
    """Boundary of the tetrahedron on integer vertices 1..4."""
    return SimplicialComplex.from_maximal(
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    )


def cp1_cellspace() -> CellSpace:
    return CellSpace.build([Cell("pt", 0, None), Cell("cell2", 2, None)])


# ---------------------------------------------------------------------------
# self-maps

def identity_problem(space: SimplicialComplex) -> TracedProblem:
    return TracedProblem(spec=SelfMapSpec.identity(space))


def rotation_spec() -> SelfMapSpec:
    """One-step rotation of the hexagon; no fixed points at all."""
    vm = {f"v{i}": f"v{(i + 1) % 6}" for i in range(6)}
    return SelfMapSpec.build(hexagon(), 0, vm)


def reflection_spec() -> SelfMapSpec:
    """Reflection of the hexagon; fixes the two vertices on the axis."""
    vm = {f"v{i}": f"v{(6 - i) % 6}" for i in range(6)}
    return SelfMapSpec.build(hexagon(), 0, vm)


def reflection_problem() -> TracedProblem:
    """Both fixed points carry the 1x1 normal map -1 of the reflection."""
    minus_one = RationalMatrix.of([[-1]])
    return TracedProblem(
        spec=reflection_spec(),
        normal=NormalData.of({0: minus_one, 1: minus_one}),
    )


def doubling_spec() -> SelfMapSpec:
    """Angle doubling on the hexagonal circle, written on one subdivision.

    Subdivision vertices sit at the twelve half-hour marks; doubling sends
    the k-th mark to the (k mod 6)-th hexagon vertex, fixing only v0.
    """
    base = hexagon()
    vm = {}
    for j in range(6):
        vm[(f"v{j}",)] = f"v{(2 * j) % 6}"
        edge = (f"v{j}", f"v{(j + 1) % 6}")
        vm[tuple(sorted(edge))] = f"v{(2 * j + 1) % 6}"
    return SelfMapSpec.build(base, 1, vm)


def doubling_problem() -> TracedProblem:
    """Expanding fixed point: normal map 2, sign of det(I - A) is -1."""
    return TracedProblem(
        spec=doubling_spec(),
        normal=NormalData.of({0: RationalMatrix.of([[2]])}),
        non_characteristic=True,
    )


def collapse_map() -> SimplicialMap:
    """The interval squashed to the point."""
    return SimplicialMap.build(
        interval_complex(), point_complex(), {"a": "p", "b": "p"}
    )


def square_projection() -> SimplicialMap:
    """Unit square (two triangles) projected onto its bottom edge."""
    square = SimplicialComplex.from_maximal([("a", "b", "c"), ("a", "c", "d")])
    edge = SimplicialComplex.from_maximal([("a", "b")])
    return SimplicialMap.build(
        square, edge, {"a": "a", "b": "b", "c": "b", "d": "a"}
    )


FIXTURE_COMPLEXES = {
    "point": point_complex,
    "interval": interval_complex,
    "hexagon": hexagon,
    "12gon": twelve_gon,
    "disk": disk,
    "s2": sphere2,
}
