"""Simplicial chain complexes over Q, chain endomorphisms, and traces.

Orientation convention: a simplex is oriented by its canonical vertex
order, and the boundary uses the usual alternating signs in that order.
Relative chain complexes are quotients: the bases simply omit the cells of
the dropped subcomplex and boundary entries landing there are discarded.
Dropping the complement of a locally closed family Z minus B (Z and B
closed) the same way gives the chains of the pair (Z, B).

Every chain-level matrix (boundaries and endomorphisms) is a SparseMatrix
of integer columns, so the checks dd = 0 and df = fd cost O(nonzeros).

Two trace routes are kept deliberately separate:

* hopf_trace: alternating sum of chain-level traces;
* lefschetz_number: alternating sum of induced traces on homology,
  obtained from one column reduction of each boundary matrix: its zero
  columns give a cycle basis, its reduced columns a boundary basis, and
  each cycle image is reduced against both.

They must agree; the test suite checks that on hundreds of random maps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, starmap
from operator import gt

from .complexes import (
    CellularSubset,
    SimplicialComplex,
    _unclosed_at,
    canonical_tuple,
    require_simplicial,
    require_valid,
)
from .errors import DegenerateInputError
from .exact import parse_integer
from .maps import SelfMapSpec
from .records import Record, require, set_field

# Distinct (complex, dropped cells) pairs kept built; one trace problem
# touches about five.
CHAIN_COMPLEX_CACHE = 32


class SparseMatrix(Record):
    """Integer matrix by columns: columns[j] maps a row to a nonzero entry.
    Chain complexes are cached and shared, so columns are never mutated."""

    __slots__ = _fields = ("nrows", "ncols", "columns")

    @property
    def rows(self) -> tuple:
        """Dense read-only view, one tuple per row."""
        grid = [[0] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                grid[i][j] = x
        return tuple(map(tuple, grid))

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise DegenerateInputError("trace needs a square matrix")
        return Fraction(sum(col.get(j, 0) for j, col in enumerate(self.columns)))

    def _times(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise DegenerateInputError(
                f"matmul shape mismatch {self.nrows}x{self.ncols} @ "
                f"{other.nrows}x{other.ncols}"
            )
        return SparseMatrix(
            self.nrows, other.ncols, tuple(map(self._apply, other.columns))
        )

    def _apply(self, vec: dict) -> dict:
        out = {}
        for r, b in vec.items():
            _add_multiple(out, b, self.columns[r])
        return out


def _add_multiple(target: dict, c, source: dict) -> None:
    """target += c * source, dropping entries that cancel."""
    for i, x in source.items():
        y = target.get(i, 0) + c * x
        if y:
            target[i] = y
        else:
            del target[i]


def _ratio(a, b):
    """a / b, an int whenever b divides a (always when b is +-1)."""
    q, r = divmod(a, b)
    return q if r == 0 else Fraction(a, b)


def _reduce(boundary: SparseMatrix) -> tuple:
    """Left-to-right column reduction of one boundary matrix d_k.

    Returns (lows, cycles).  lows maps the largest row of each nonzero
    reduced column to that column: a basis of the boundaries in C_{k-1}
    with distinct largest rows.  cycles maps each column j that reduces to
    zero to the k-cycle that the reduction built, whose largest index is j.
    Whenever d_{k+1} reduces to a column with largest row j, column j of
    d_k reduces to zero, so the lows of d_{k+1} are keys of cycles.
    """
    lows, cycles = {}, {}
    for j, col in enumerate(boundary.columns):
        col, chain = dict(col), {j: 1}
        while col:
            low = max(col)
            if low not in lows:
                lows[low] = (col, chain)
                break
            other, other_chain = lows[low]
            c = -_ratio(col[low], other[low])
            _add_multiple(col, c, other)
            _add_multiple(chain, c, other_chain)
        else:
            cycles[j] = chain
    return {low: col for low, (col, _) in lows.items()}, cycles


def _normalize_subcomplex(space: SimplicialComplex, dropped) -> frozenset:
    cells = CellularSubset.of(space, dropped).members
    unclosed = _unclosed_at(cells)
    if unclosed is not None:
        raise DegenerateInputError(
            f"subcomplex is not face-closed at {canonical_tuple(unclosed)}"
        )
    return cells


class ChainComplexQ(Record):
    _fields = ("space", "dropped", "bases", "boundaries")  # repr leaves out index
    noun = "a chain complex"

    def __init__(
        self, space: SimplicialComplex, dropped: frozenset, bases: tuple,
        boundaries: tuple, index: tuple,
    ):
        """bases: per degree, a tuple of simplices in canonical order;
        boundaries[k]: C_k -> C_{k-1}, boundaries[0] is 0 x n_0;
        index: per degree, {simplex: column}."""
        set_field(self, "space", space)
        set_field(self, "dropped", dropped)
        set_field(self, "bases", bases)
        set_field(self, "boundaries", boundaries)
        set_field(self, "index", index)

    def basis_size(self, k: int) -> int:
        return len(self.bases[k]) if 0 <= k < len(self.bases) else 0

    @cached_property
    def _reductions(self) -> tuple:
        """_reduce of every boundary matrix, plus an empty one on top."""
        return tuple(map(_reduce, self.boundaries)) + (({}, {}),)


def chain_complex(space: SimplicialComplex, relative_to=None) -> ChainComplexQ:
    space = require_simplicial(space, "chain_complex")
    absolute = _chain_complex(space, frozenset())  # validates the space first
    if relative_to is None:
        return absolute
    return _chain_complex(space, _normalize_subcomplex(space, relative_to))


@lru_cache(maxsize=CHAIN_COMPLEX_CACHE)
def _chain_complex(space: SimplicialComplex, dropped: frozenset) -> ChainComplexQ:
    require_valid(space)
    bases = [
        tuple(s for s in space.k_cells(k) if s not in dropped)
        for k in range(space.dim + 1)
    ]
    while bases and not bases[-1]:
        bases.pop()
    index = tuple({s: i for i, s in enumerate(b)} for b in bases)
    boundaries = [SparseMatrix(0, len(b), ({},) * len(b)) for b in bases[:1]]
    for k in range(1, len(bases)):
        faces = index[k - 1]
        columns = tuple(
            {
                faces[s - {v}]: -1 if i % 2 else 1
                for i, v in enumerate(canonical_tuple(s))
                if s - {v} in faces
            }
            for s in bases[k]
        )
        boundaries.append(SparseMatrix(len(faces), len(columns), columns))
    cc = ChainComplexQ(space, dropped, tuple(bases), tuple(boundaries), index)
    for k in range(2, len(bases)):
        if any(cc.boundaries[k - 1]._times(cc.boundaries[k]).columns):
            raise DegenerateInputError("boundary of boundary is nonzero")
    return cc


def betti(cc: ChainComplexQ) -> list:
    """Rational Betti numbers per degree (relative ones if cells were
    dropped at construction)."""
    red = require(cc, ChainComplexQ, "betti")._reductions
    return [len(red[k][1]) - len(red[k + 1][0]) for k in range(len(cc.bases))]


def relative_betti(space: SimplicialComplex, subcomplex) -> list:
    return betti(chain_complex(space, relative_to=subcomplex))


class ChainMapQ(Record):
    """A chain endomorphism of one complex.  matrices: one square
    SparseMatrix per degree of `source`."""

    __slots__ = _fields = ("source", "matrices")


def _build_chain_map(cc: ChainComplexQ, matrices) -> ChainMapQ:
    """The endomorphism of `cc` with these degree matrices, checked to
    commute with the boundary."""
    cm = ChainMapQ(cc, tuple(matrices))
    for k in range(1, len(cc.bases)):
        boundary = cc.boundaries[k]
        lhs = boundary._times(cm.matrices[k])
        rhs = cm.matrices[k - 1]._times(boundary)
        if lhs.columns != rhs.columns:
            raise DegenerateInputError(
                f"chain map fails to commute with the boundary in degree {k}"
            )
    return cm


def self_map_endomorphism(spec: SelfMapSpec, relative_to=None) -> ChainMapQ:
    """The chain endomorphism (map_* o sd^level_*) on C_*(base).

    sd_* sends a simplex to the fundamental chain of its subdivision
    (Munkres, Elements of Algebraic Topology, section 17), which
    `spec.subdivision` lists by flags, with no complex built.  The column of
    a base simplex sums, over the cells tau of that chain, tau's sign times
    map_*(tau): zero when the image collapses, else the image simplex
    signed by the reordering of its vertices into canonical form.  Callers
    read it as `spec.endomorphism`, which calls this once per spec.  The
    spec's build validated the base and checked the flag tables, which
    stands in for validating sd^level.  With `relative_to`, the spec's own
    endomorphism is projected onto the quotient by an invariant subcomplex;
    invariance is checked geometrically via the carrier, not by looking for
    accidental cancellation.  A relative endomorphism is not kept.
    """
    spec = require(spec, SelfMapSpec, "self_map_endomorphism")
    base = spec.base
    if relative_to is not None:
        endo = spec.endomorphism
        dropped = _normalize_subcomplex(base, relative_to)
        if not spec.preserves_subcomplex(dropped):
            raise DegenerateInputError(
                "the dropped subcomplex is not invariant under the map"
            )
        return project_endomorphism(endo, base.simplices - dropped)
    cc = chain_complex(base)
    image, rank = spec.images.__getitem__, base._vertex_index
    columns = {}
    for rho, (cells, signs) in spec.subdivision.chains.items():
        column = columns[rho] = {}
        for tau, sign in zip(cells, signs):
            images = list(map(image, tau))
            simplex = frozenset(images)
            if len(simplex) != len(images):
                continue
            ranks = map(rank.__getitem__, images)
            if sum(starmap(gt, combinations(ranks, 2))) & 1:
                sign = -sign
            row = cc.index[len(images) - 1][simplex]
            total = column.get(row, 0) + sign
            if total:
                column[row] = total
            else:
                del column[row]
    return _build_chain_map(cc, [
        SparseMatrix(len(basis), len(basis), tuple(columns[s] for s in basis))
        for basis in cc.bases
    ])


def project_endomorphism(endo: ChainMapQ, cells) -> ChainMapQ:
    """The part of an endomorphism of C_*(K) on a locally closed family of
    cells: a closed Z minus a closed part B of it, whose chains are
    C_*(Z, B).  When Z and B are invariant this is the induced map on
    C_*(Z, B), and the chain-map check confirms it."""
    full = endo.source
    kept = CellularSubset.of(full.space, cells).members
    quotient = _chain_complex(full.space, full.space.simplices - kept)
    matrices = []
    for k in range(len(quotient.bases)):
        keep = {full.index[k][s]: i for i, s in enumerate(quotient.bases[k])}
        columns = endo.matrices[k].columns
        projected = tuple(
            {keep[r]: x for r, x in columns[j].items() if r in keep} for j in keep
        )
        matrices.append(SparseMatrix(len(keep), len(keep), projected))
    return _build_chain_map(quotient, matrices)


def _as_endomorphism(target, operation: str) -> ChainMapQ:
    """A trace target, a chain endomorphism or a spec, as the endomorphism;
    a refusal names `operation`, the function the caller used."""
    if isinstance(target, ChainMapQ):
        return target
    return require(target, SelfMapSpec, operation).endomorphism


def hopf_trace(target) -> Fraction:
    """Alternating sum of chain-level traces of a self-map."""
    mats = _as_endomorphism(target, "hopf_trace").matrices
    return sum((m.trace() * (-1) ** k for k, m in enumerate(mats)), Fraction(0))


def homology_trace(target, k: int) -> Fraction:
    """Trace of the induced map on H_k.

    The cycles of the reduction of d_k whose index is not the largest row
    of a reduced column of d_{k+1} represent a basis of H_k.  Each image of
    such a cycle is reduced, largest index first, against that basis and
    the boundary columns; the coefficients it meets on its own cycle are
    summed.  The result is basis independent.
    """
    k = parse_integer(k, "degree")
    endo = _as_endomorphism(target, "homology_trace")
    cc = endo.source
    if cc.basis_size(k) == 0:
        return Fraction(0)
    cycles, bounds = cc._reductions[k][1], cc._reductions[k + 1][0]
    mk = endo.matrices[k]
    total = Fraction(0)
    for j, cycle in cycles.items():
        if j in bounds:
            continue
        image = mk._apply(cycle)
        while image:
            low = max(image)
            basis = bounds.get(low, cycles.get(low))
            if basis is None:
                raise DegenerateInputError(
                    "image of a cycle left the cycle space; not a chain map"
                )
            c = _ratio(image[low], basis[low])
            if low == j:
                total += c
            _add_multiple(image, -c, basis)
    return total


def homology_traces(target) -> list:
    endo = _as_endomorphism(target, "homology_traces")
    return [homology_trace(endo, k) for k in range(len(endo.source.bases))]


def lefschetz_number(target) -> Fraction:
    """Alternating sum of homology traces of a chain self-map.

    Accepts a ChainMapQ endomorphism or a SelfMapSpec (which is first
    turned into (map_* o sd^level_*)).
    """
    traces = homology_traces(_as_endomorphism(target, "lefschetz_number"))
    return sum((t * (-1) ** k for k, t in enumerate(traces)), Fraction(0))


def relative_lefschetz_number(spec: SelfMapSpec, subcomplex) -> Fraction:
    spec = require(spec, SelfMapSpec, "relative_lefschetz_number")
    return lefschetz_number(self_map_endomorphism(spec, relative_to=subcomplex))


def euler_characteristic(space: SimplicialComplex) -> int:
    cc = chain_complex(space)
    return sum((-1) ** k * cc.basis_size(k) for k in range(len(cc.bases)))
