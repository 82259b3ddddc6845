"""Constructible functions and their Euler calculus.

A constructible function assigns a Gaussian-rational value to each open
cell (constant on open cells by construction).  The compactly supported
Euler characteristic of an open k-cell is (-1)^k, so integration, the
pushforward along a simplicial map, and pullback are finite exact sums:

    integral(phi)      = sum_cells (-1)^dim * phi(cell)
    (g_* phi)(tau)     = sum over cells sigma with g(sigma) = tau of
                         (-1)^(dim sigma - dim tau) * phi(sigma)
    (g^* psi)(sigma)   = psi(g(sigma))

The pushforward is the fibrewise integral, so integral(g_* phi) =
integral(phi) holds identically (checked in bulk by the test suite).
"""

from __future__ import annotations

from .complexes import (
    CellSpace,
    CellularSubset,
    SimplicialComplex,
    cell_name,
    cell_sort_key,
    read_table,
    require_simplicial,
    require_space,
)
from .errors import DegenerateInputError, shown
from .exact import GZERO, GaussianRational, signed_sum, signed_sums
from .maps import SelfMapSpec, SimplicialMap
from .records import Record, require, set_field


class ConstructibleFunction(Record):
    __slots__ = ("parent", "values")
    _fields = ("parent",)  # repr leaves out values
    noun = "a constructible function"

    def __init__(self, parent, values: dict):
        """values: cell -> GaussianRational, zero values omitted."""
        set_field(self, "parent", parent)
        set_field(self, "values", values)

    @staticmethod
    def of(parent, values) -> "ConstructibleFunction":
        parent = require_space(parent, "ConstructibleFunction.of")
        table = {}
        known = parent.cell_keys
        given = read_table(values, "values for cell", parent.cell_key)
        for cell, raw in given.items():
            if cell not in known:
                raise DegenerateInputError(
                    f"value on unknown cell {shown(cell_name(cell))}"
                )
            value = GaussianRational.of(raw)
            if not value.is_zero():
                table[cell] = value
        return ConstructibleFunction(parent, table)

    @staticmethod
    def indicator(parent, cells=None) -> "ConstructibleFunction":
        """1 on the given family of cells (every cell when None), else 0."""
        parent = require_space(parent, "ConstructibleFunction.indicator")
        if cells is None:
            members = parent.cell_keys
        else:
            members = CellularSubset.of(parent, cells).members
        one = GaussianRational.of(1)
        return ConstructibleFunction(parent, dict.fromkeys(members, one))

    def __call__(self, cell) -> GaussianRational:
        return self.values.get(self.parent.cell_key(cell), GZERO)

    def support(self) -> CellularSubset:
        return CellularSubset(self.parent, frozenset(self.values))

    def sorted_items(self) -> list:
        return sorted(self.values.items(), key=lambda kv: cell_sort_key(kv[0]))

    def __eq__(self, other):
        return (
            isinstance(other, ConstructibleFunction)
            and self.parent == other.parent
            and self.values == other.values
        )


def chi_c(target) -> int:
    """Compactly supported Euler characteristic of a union of open cells:
    a CellularSubset, or a whole space (a CellSpace's cells carry their
    dims).  A subset of a cell space reads its parent's table of signs."""
    if isinstance(target, CellSpace):
        return sum((-1) ** c.dim for c in target.cells)
    if isinstance(target, CellularSubset):
        parent, cells = target.parent, target.members
    else:
        parent = require_space(target, "chi_c")
        cells = parent.cell_keys
    if isinstance(parent, CellSpace):
        return sum(map(parent.cell_signs.__getitem__, cells))
    return sum((-1) ** parent.cell_dim(c) for c in cells)


def euler_integral(phi: ConstructibleFunction) -> GaussianRational:
    dim = require(phi, ConstructibleFunction, "euler_integral").parent.cell_dim
    return signed_sum(((-1) ** dim(cell), value) for cell, value in phi.values.items())


def restrict(phi: ConstructibleFunction, subset) -> ConstructibleFunction:
    phi = require(phi, ConstructibleFunction, "restrict")
    members = CellularSubset.of(phi.parent, subset).members
    return ConstructibleFunction(
        phi.parent, {c: v for c, v in phi.values.items() if c in members}
    )


def combine(a, phi: ConstructibleFunction, b, psi: ConstructibleFunction):
    """a*phi + b*psi with Gaussian-rational scalars."""
    phi = require(phi, ConstructibleFunction, "combine")
    psi = require(psi, ConstructibleFunction, "combine")
    if phi.parent != psi.parent:
        raise DegenerateInputError("combine needs functions on the same space")
    a = GaussianRational.of(a)
    b = GaussianRational.of(b)
    table = {}
    for cell in set(phi.values) | set(psi.values):
        value = a * phi.values.get(cell, GZERO) + b * psi.values.get(cell, GZERO)
        if not value.is_zero():
            table[cell] = value
    return ConstructibleFunction(phi.parent, table)


def scale(c, phi: ConstructibleFunction) -> ConstructibleFunction:
    phi = require(phi, ConstructibleFunction, "scale")
    return combine(c, phi, 0, ConstructibleFunction(phi.parent, {}))


def pushforward(g: SimplicialMap, phi: ConstructibleFunction):
    """Fibrewise Euler integral along a simplicial map: the image simplices
    are numbered in first-seen order, and one signed_sums pass sums every
    fibre."""
    g = require(g, SimplicialMap, "pushforward")
    phi = require(phi, ConstructibleFunction, "pushforward")
    if phi.parent != g.source:
        raise DegenerateInputError("function does not live on the map's source")
    groups = {}  # image simplex -> its number, in first-seen order
    terms = []
    for cell, value in phi.values.items():
        image = g.image_simplex(cell)
        group = groups.setdefault(image, len(groups))
        terms.append((group, -1 if (len(cell) - len(image)) & 1 else 1, value))
    table = {
        image: total
        for image, total in zip(groups, signed_sums(len(groups), terms))
        if not total.is_zero()
    }
    return ConstructibleFunction(g.target, table)


def pullback(g: SimplicialMap, psi: ConstructibleFunction):
    g = require(g, SimplicialMap, "pullback")
    psi = require(psi, ConstructibleFunction, "pullback")
    if psi.parent != g.target:
        raise DegenerateInputError("function does not live on the map's target")
    table = {}
    for cell in g.source.simplices:
        value = psi.values.get(g.image_simplex(cell), GZERO)
        if not value.is_zero():
            table[cell] = value
    return ConstructibleFunction(g.source, table)


def transport_to_subdivision(
    phi: ConstructibleFunction, finer: SimplicialComplex, carrier: dict
) -> ConstructibleFunction:
    """Re-express phi on a subdivision: each new cell inherits the value of
    its carrier.  Integrals are unchanged because each open cell subdivides
    into cells whose compactly-supported characteristics add up to its own.
    """
    phi = require(phi, ConstructibleFunction, "transport_to_subdivision")
    finer = require_simplicial(finer, "transport_to_subdivision")
    if not (isinstance(carrier, dict) and carrier.keys() >= finer.simplices):
        raise DegenerateInputError(
            "transport_to_subdivision needs a carrier for every simplex of `finer`"
        )
    table = {}
    for cell in finer.simplices:
        value = phi.values.get(frozenset(carrier[cell]), GZERO)
        if not value.is_zero():
            table[cell] = value
    return ConstructibleFunction(finer, table)


def pushforward_spec(spec: SelfMapSpec, phi: ConstructibleFunction):
    """Pushforward along a subdivided self-map: transport to the source
    subdivision by carrier, then push along the vertex map."""
    spec = require(spec, SelfMapSpec, "pushforward_spec")
    phi = require(phi, ConstructibleFunction, "pushforward_spec")
    if phi.parent != spec.base:
        raise DegenerateInputError("function does not live on the base complex")
    finer = spec.source_complex()
    carrier = spec.carrier()
    return pushforward(spec.as_map(), transport_to_subdivision(phi, finer, carrier))
