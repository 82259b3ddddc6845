"""Finite simplicial complexes, cell spaces, and cellular subsets.

A simplicial complex is a face-closed set of nonempty vertex subsets with
optional exact rational coordinates.  A cell space is the bookkeeping
skeleton of a cell decomposition: cells carry only a dimension and an
optional component label, no incidence, so operations that need incidence
(homology, stars, Morse data) reject cell spaces with a typed error.

Cells of a complex are open cells throughout the package: values of
constructible functions and Euler characteristics with compact support are
taken cellwise with weight (-1)^dim.  Both kinds of space answer the same
cell protocol: `cell_key(ref)` turns a cell reference into the key a cell
is stored under (a vertex frozenset, or an id string), `cell_dim(key)` is
its dimension, and `cell_keys` is the set of all keys.

Iterated subdivisions have one generator, `flag_subdivision`.  It lists
sd^k's vertices (numbered, one object each), each vertex's carrier, and
the fundamental chain of every base simplex, from one table of full flags
per dimension (Munkres, Elements of Algebraic Topology, section 17), and
builds no complex; the self-map specs read it, and through them their
traces and fixed loci, and the problem reader.  sd^k as a complex, with
its carrier map, is the generated record's one cached view, which
`subdivided_complex` returns; pushforwards, refinement and the Euler
calculus on subdivisions read that.

Everything is deterministic: vertex identifiers are ordered by a fixed
total key, simplices by (dimension, vertex order), components by their
smallest cell.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import comb, lcm
from operator import itemgetter

from .errors import (
    CellSpaceUnsupportedError,
    DegenerateInputError,
    InvalidComplexError,
    shown,
)
from .exact import parse_integer, read_rows
from .records import Record, Value, require, set_field, slot_setters


def vertex_key(v):
    """Total order on vertex identifiers (ints, strings, nested tuples).

    Tuples sort by length first, so barycenter vertices of a subdivision
    sort in face-poset order inside any subdivision simplex.  A tuple's key
    is (2, len, k_1, ..., k_n), its parts' keys spliced in after the length:
    the length fixes where the parts end, so the key orders as the nested
    (2, len, (k_1, ..., k_n)) does, one tuple level shallower, which is what
    a comparison walks.  A TupleVertex carries its key; anything but a
    string, an int of at most 64 bits (not a bool) or a tuple of
    identifiers is refused.
    """
    if isinstance(v, TupleVertex):
        return v.key
    if isinstance(v, tuple):
        return (2, len(v), *map(vertex_key, v))
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, int) and not isinstance(v, bool) and v.bit_length() <= 64:
        return (0, v)
    raise DegenerateInputError(
        f"invalid vertex {shown(v)}: vertices are strings, ints of at most "
        "64 bits and tuples of them"
    )


class TupleVertex(tuple):
    """A tuple vertex carrying its order key, computed once from its parts.
    It equals, hashes and prints as the plain tuple does; a copy or a
    pickle of it is an equal TupleVertex.  The flag generator makes its
    vertices from parts that are vertices already, with tuple.__new__,
    and their keys are computed when first read."""

    __repr__ = tuple.__repr__

    def __new__(cls, parts):
        self = super().__new__(cls, parts)
        self.key = (2, len(self), *map(vertex_key, self))
        return self

    @cached_property
    def key(self) -> tuple:
        """Read with no recursion, so that a vertex nested past the
        recursion limit has one: unread parts' keys are computed first."""
        stack = [self]
        while stack:
            v = stack.pop()
            if "key" in vars(v):
                continue
            below = [p for p in v if type(p) is TupleVertex and "key" not in vars(p)]
            if below:
                stack.append(v)
                stack += below
            else:
                vars(v)["key"] = (2, len(v), *map(vertex_key, v))
        return vars(self)["key"]


def canonical_tuple(simplex) -> tuple:
    """The vertices of a simplex in vertex_key order.  Only a value that is
    no collection makes sorted raise TypeError: a bad vertex is refused by
    vertex_key, and keys of two kinds differ at their first entry."""
    try:
        return tuple(sorted(simplex, key=vertex_key))
    except TypeError:
        raise DegenerateInputError(
            f"canonical_tuple needs a simplex; got {type(simplex).__name__}"
        ) from None


def cell_sort_key(cell):
    """A simplex's key is (size, its vertices' keys in order), spliced as
    vertex_key's; a cell id's is its vertex_key."""
    if isinstance(cell, frozenset):
        return (len(cell), *sorted(map(vertex_key, cell)))
    return vertex_key(cell)


def cell_name(key):
    """A cell key as messages print it: the canonical vertex tuple of a
    simplex (a frozenset's repr follows the string hash), a cell id as is."""
    return canonical_tuple(key) if isinstance(key, frozenset) else key


def _iterable(x) -> bool:
    """Whether `x` can be read as a collection: iterable, and not a string."""
    return hasattr(x, "__iter__") and not isinstance(x, (str, bytes))


def read_table(entries, what: str, key=None) -> dict:
    """The one reader of a key-value table: a dict, or an iterable of
    (key, value) pairs, each a tuple or list of two items.  Each key is
    read through `key` when it is given; a malformed pair, an unhashable
    key and two entries whose keys read the same are refused, the last
    as "two <what> <key>"."""
    if isinstance(entries, dict):
        if key is None:
            return dict(entries)
        entries = entries.items()
    elif not _iterable(entries):
        raise DegenerateInputError(f"not a table of (key, value) pairs: {shown(entries)}")
    table = {}
    for pair in entries:
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise DegenerateInputError(f"not a (key, value) pair: {shown(pair)}")
        k = pair[0] if key is None else key(pair[0])
        try:
            seen = k in table
        except TypeError:
            raise DegenerateInputError(f"unhashable key {shown(k)}") from None
        if seen:
            raise DegenerateInputError(f"two {what} {shown(cell_name(k))}")
        table[k] = pair[1]
    return table


def read_cells(cells, key) -> frozenset:
    """The keys of a family of cell references, each read through `key`
    (a space's cell_key); a string or a non-iterable is no family.
    CellularSubset.of and the complex constructors read families here."""
    if not _iterable(cells):
        raise DegenerateInputError(f"not a family of cells: {shown(cells)}")
    return frozenset(map(key, cells))


def _faces(simplices) -> set:
    """Every nonempty face of the given simplices, each a frozenset."""
    closed = set()
    for s in read_cells(simplices, SimplicialComplex.cell_key):
        items = tuple(s)
        for k in range(1, len(items) + 1):
            closed.update(map(frozenset, combinations(items, k)))
    return closed


class SimplicialComplex(Value):
    """vertices in vertex_key order; coords: coordinate tuples aligned with
    vertices, or None."""

    _fields = ("vertices", "simplices", "coords")
    noun = "a simplicial complex"

    @staticmethod
    def build(vertices, simplices, coords=None) -> "SimplicialComplex":
        """coords: a dict of each vertex's coordinate row, or a list of rows
        aligned with the vertex sequence; read_rows reads the rows."""
        if not _iterable(vertices):
            raise DegenerateInputError(f"not a vertex list: {shown(vertices)}")
        listed = list(vertices)  # read once, so a one-shot iterable aligns too
        keyed = {vertex_key(v): v for v in listed}  # read, never hashed
        verts = tuple(v for _, v in sorted(keyed.items()))
        simps = read_cells(simplices, SimplicialComplex.cell_key)
        coord_field = None
        if coords is not None:
            if isinstance(coords, dict):
                names, coords = list(coords), list(coords.values())
            elif isinstance(vertices, (set, frozenset)):
                raise DegenerateInputError(
                    "aligned coordinates need an ordered vertex sequence"
                )
            else:
                names = listed
            rows = read_rows(coords, "coordinates")
            if len(rows) != len(names):
                raise DegenerateInputError(
                    "coordinate rows do not align with the vertex list"
                )
            table = dict(zip(names, rows))
            coord_field = tuple(table.get(v) for v in verts)
        return SimplicialComplex(verts, simps, coord_field)

    @staticmethod
    def from_simplices(simplices, coords=None) -> "SimplicialComplex":
        simps = read_cells(simplices, SimplicialComplex.cell_key)
        verts = set()
        for s in simps:
            verts |= s
        return SimplicialComplex.build(verts, simps, coords)

    @staticmethod
    def from_maximal(maximal, coords=None) -> "SimplicialComplex":
        """Close the given simplices under taking faces."""
        return SimplicialComplex.from_simplices(_faces(maximal), coords)

    @property
    def dim(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    @property
    def cell_keys(self) -> frozenset:
        return self.simplices

    @staticmethod
    def cell_key(ref) -> frozenset:
        """A simplex reference is a list, tuple, set or frozenset of vertices."""
        if isinstance(ref, (frozenset, list, tuple, set)):
            try:
                return frozenset(ref)
            except TypeError:  # an unhashable vertex
                pass
        raise DegenerateInputError(f"not a simplex: {shown(ref)}")

    @staticmethod
    def cell_dim(key) -> int:
        try:
            return len(key) - 1
        except TypeError:  # no collection, so no simplex
            raise DegenerateInputError(f"not a simplex: {shown(key)}") from None

    def has(self, simplex) -> bool:
        return self.cell_key(simplex) in self.simplices

    def k_cells(self, k: int) -> list:
        return sorted(
            (s for s in self.simplices if len(s) == k + 1), key=cell_sort_key
        )

    @cached_property
    def _vertex_index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    def vertex_index(self, v) -> int:
        try:
            return self._vertex_index[v]
        except (KeyError, TypeError):
            raise DegenerateInputError(f"unknown vertex {shown(v)}") from None

    def vertex(self, v):
        """The one reader of a vertex argument: `v` is read through
        vertex_key, so a bool, a float or an int past 64 bits is no vertex
        even when it equals one, and a vertex the space lacks is refused.
        Returns the space's own vertex object."""
        vertex_key(v)
        return self.vertices[self.vertex_index(v)]

    def coord_of(self, v):
        if self.coords is None:
            return None
        return self.coords[self.vertex_index(v)]

    @cached_property
    def maximal(self) -> frozenset:
        """The simplices that are no codim-1 face of another."""
        facets = {s - {v} for s in self.simplices if len(s) > 1 for v in s}
        return self.simplices - facets

    @cached_property
    def violations(self) -> tuple:
        """validate(self), run once per complex."""
        return tuple(validate(self))


class Cell(Value):
    __slots__ = _fields = ("ident", "dim", "component")

    def __init__(self, ident: str, dim: int, component: str | None = None):
        _set_ident(self, ident)
        _set_dim(self, dim)
        _set_component(self, component)


_set_ident, _set_dim, _set_component = slot_setters(Cell)


class CellSpace(Value):
    _fields = ("cells",)
    noun = "a cell space"
    violations = ()  # construction enforces the cell-space invariants

    @staticmethod
    def build(cells) -> "CellSpace":
        """The space of the given Cells: a string id named once, a dim of at
        least 0 and a string component or None."""
        if not _iterable(cells):
            raise DegenerateInputError(f"not a family of cells: {shown(cells)}")
        rows = {}
        for cell in cells:
            if not isinstance(cell, Cell):
                raise DegenerateInputError(f"not a cell: {shown(cell)}")
            ident, component = CellSpace.cell_key(cell.ident), cell.component
            if ident in rows:
                raise DegenerateInputError(f"duplicate cell id {ident!r}")
            parse_integer(cell.dim, f"the dim of cell {ident!r}", least=0)
            if component is not None and not isinstance(component, str):
                raise DegenerateInputError(
                    f"the component of cell {ident!r} must be a string or None, "
                    f"got {shown(component)}"
                )
            rows[ident] = cell
        return CellSpace(tuple([rows[ident] for ident in sorted(rows)]))

    @cached_property
    def _by_ident(self) -> dict:
        return {c.ident: c for c in self.cells}

    def cell(self, ident: str) -> Cell:
        try:
            return self._by_ident[ident]
        except KeyError:
            raise DegenerateInputError(f"unknown cell {shown(ident)}") from None

    @cached_property
    def cell_keys(self) -> frozenset:
        return frozenset(self._by_ident)

    @cached_property
    def cell_signs(self) -> dict:
        """(-1)^dim of each cell, by id."""
        return {c.ident: (-1) ** c.dim for c in self.cells}

    @staticmethod
    def cell_key(ref) -> str:
        """A cell reference is its id, a string."""
        if isinstance(ref, str):
            return ref
        raise DegenerateInputError(f"not a cell id: {shown(ref)}")

    def cell_dim(self, key) -> int:
        return self.cell(key).dim


def require_simplicial(parent, operation: str) -> SimplicialComplex:
    """`parent` if it is a simplicial complex; a cell space is refused as
    lacking incidence data, anything else by require as no space at all."""
    if isinstance(parent, CellSpace):
        raise CellSpaceUnsupportedError(
            f"{operation} needs simplicial incidence data; got a cell space"
        )
    return require(parent, SimplicialComplex, operation)


def require_space(parent, operation: str):
    """`parent` if it is a simplicial complex or a cell space, the two
    kinds of space that answer the cell protocol."""
    return require(parent, (SimplicialComplex, CellSpace), operation)


class CellularSubset(Value):
    """A union of open cells of one parent space."""

    __slots__ = _fields = ("parent", "members")
    noun = "a cellular subset"

    def __init__(self, parent, members: frozenset):
        """members: a frozenset of cell keys of `parent`; one it lacks is refused."""
        parent = require_space(parent, "CellularSubset")
        if not isinstance(members, frozenset):
            raise DegenerateInputError(
                f"CellularSubset needs a frozenset of cells; got {type(members).__name__}"
            )
        if not members <= parent.cell_keys:
            first = sorted(members - parent.cell_keys, key=cell_sort_key)[:3]
            raise DegenerateInputError(
                f"cells not in parent: {[repr(cell_name(c)) for c in first]}"
            )
        set_field(self, "parent", parent)
        set_field(self, "members", members)

    @staticmethod
    def of(parent, cells) -> "CellularSubset":
        """The one reader for a family of cells of `parent`: references the
        parent's cell_key reads, a SimplicialComplex (its simplices), or a
        CellularSubset of an equal parent, returned as it is."""
        parent = require_space(parent, "CellularSubset.of")
        if isinstance(cells, CellularSubset):
            if cells.parent != parent:
                raise DegenerateInputError("cells of a different parent")
            return cells
        if isinstance(cells, SimplicialComplex):
            cells = cells.simplices
        return CellularSubset(parent, read_cells(cells, parent.cell_key))

    def sorted_members(self) -> list:
        return sorted(self.members, key=cell_sort_key)

    def __contains__(self, cell) -> bool:
        return self.parent.cell_key(cell) in self.members


def whole_space(parent) -> CellularSubset:
    parent = require_space(parent, "whole_space")
    return CellularSubset(parent, frozenset(parent.cell_keys))


def _unclosed_at(cells: frozenset):
    """The first simplex of a family, in cell order, with a facet outside
    the family; None when the family is face-closed."""
    return min(
        (c for c in cells if len(c) > 1 and not all(c - {v} in cells for v in c)),
        key=cell_sort_key,
        default=None,
    )


# ---------------------------------------------------------------------------
# validation


class Violation(Value):
    __slots__ = _fields = ("kind", "detail")


def validate(space) -> list:
    """Structural diagnostics; empty list means the space is well formed.

    The simplices are walked in no order.  Each simplex keeps its own
    violations, and only the simplices that have one are sorted into cell
    order at the end, so a valid complex is never sorted.  Every face of an
    affinely independent simplex is independent, so the rank test runs on
    space.maximal and on every simplex only when one of them fails or a
    vertex is unlisted; the violation list is the same either way.
    """
    if isinstance(require_space(space, "validate"), CellSpace):
        return []  # construction already enforced the cell-space invariants
    simplices = space.simplices
    vset = set(space.vertices)
    flagged = {}  # simplex -> its violations
    stray_seen = False
    for s in simplices:
        faces = [s - {v} for v in s] if len(s) > 1 else ()
        stray = not vset.issuperset(s)
        if stray or not simplices.issuperset(faces) or not s:
            stray_seen |= stray
            flagged[s] = _simplex_violations(s, simplices, vset)
    out = [p for s in sorted(flagged, key=cell_sort_key) for p in flagged[s]]
    for v in space.vertices:
        if frozenset([v]) not in simplices:
            out.append(
                Violation("vertex-not-a-cell", f"vertex {v!r} has no 0-simplex")
            )
    if space.coords is not None:
        missing = [v for v, c in zip(space.vertices, space.coords) if c is None]
        if missing:
            out.append(
                Violation(
                    "missing-coordinates",
                    f"coordinates absent for {missing}",
                )
            )
        else:
            lengths = {len(c) for c in space.coords}
            if len(lengths) > 1:
                out.append(
                    Violation("ragged-coordinates", f"mixed lengths {sorted(lengths)}")
                )
            elif stray_seen or any(_degenerate(space, space.maximal, vset)):
                flat = sorted(_degenerate(space, simplices, vset), key=cell_sort_key)
                out.extend(
                    Violation(
                        "affinely-dependent",
                        f"simplex {canonical_tuple(s)} is degenerate",
                    )
                    for s in flat
                )
    return out


def _simplex_violations(s, simplices, listed) -> list:
    """The violations of one simplex: empty, unknown-vertex, then each
    missing face, in canonical order."""
    if not s:
        return [Violation("empty-simplex", "the empty set is not a cell")]
    out = []
    ordered = canonical_tuple(s)
    stray = [v for v in ordered if v not in listed]
    if stray:
        out.append(
            Violation("unknown-vertex", f"simplex {ordered} uses unlisted {stray}")
        )
    if len(s) > 1:
        for i, v in enumerate(ordered):
            if s - {v} not in simplices:
                out.append(
                    Violation(
                        "not-face-closed",
                        f"face {ordered[:i] + ordered[i + 1:]} of {ordered} is missing",
                    )
                )
    return out


def _degenerate(space, cells, listed):
    """The affinely dependent simplices among `cells`, in no order.  A
    simplex with a vertex outside `listed` has no coordinates to test and
    is skipped; its unknown-vertex violation is already in the list.

    Each vertex is read once as the homogeneous integer row (d*p, d), d
    the lcm of its point p's denominators.  Points are affinely independent
    exactly when their rows (p, 1) are linearly independent, and scaling a
    row by d > 0 keeps that, so each simplex costs one rank test on its
    vertices' rows and no lcm of its own."""
    rows = dict(zip(space.vertices, _homogeneous_rows(space.coords)))
    for s in cells:
        if len(s) > 1 and listed.issuperset(s):
            if not _full_row_rank([rows[v] for v in s]):
                yield s


def _homogeneous_rows(points) -> list:
    """Each rational point p as the integer row (d*p, d), d the lcm of its
    denominators."""
    rows = []
    for point in points:
        d = lcm(*[x.denominator for x in point])
        rows.append([x.numerator * (d // x.denominator) for x in point] + [d])
    return rows


def _full_row_rank(rows: list) -> bool:
    """Whether integer rows are linearly independent, by fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968); consumes the list `rows`
    but never changes a row of it, so rows may be shared.  Each
    step pivots on the first nonzero entry of the last remaining row, and
    every division is exact.  A remaining row is a nonzero multiple of its
    original row plus a combination of the pivot rows, so it is zero
    exactly when its original row depends on theirs."""
    previous = 1
    while rows:
        pivot_row = rows.pop()
        j = next((j for j, x in enumerate(pivot_row) if x), None)
        if j is None:
            return False
        pivot = pivot_row[j]
        rows = [
            [(pivot * a - c * b) // previous for a, b in zip(row, pivot_row)]
            for row in rows
            for c in (row[j],)
        ]
        previous = pivot
    return True


def require_valid(space) -> None:
    problems = space.violations
    if problems:
        heads = "; ".join(f"{p.kind}: {p.detail}" for p in problems[:3])
        raise InvalidComplexError(f"{len(problems)} violation(s): {heads}")


# ---------------------------------------------------------------------------
# stars, links, closures, components


def star(space: SimplicialComplex, v) -> CellularSubset:
    space = require_simplicial(space, "star")
    v = space.vertex(v)
    return CellularSubset(
        space, frozenset(s for s in space.simplices if v in s)
    )


def closure(subset: CellularSubset) -> CellularSubset:
    subset = require(subset, CellularSubset, "closure")
    parent = require_simplicial(subset.parent, "closure")
    return CellularSubset(parent, frozenset(_faces(subset.members)))


def link(space: SimplicialComplex, v) -> SimplicialComplex:
    space = require_simplicial(space, "link")
    v = space.vertex(v)
    return _subcomplex(space, [
        s for s in space.simplices if v not in s and (s | {v}) in space.simplices
    ])


def _subcomplex(space: SimplicialComplex, simplices) -> SimplicialComplex:
    """The complex of a face-closed family of `space`'s simplices, with coordinates."""
    vertices = frozenset().union(*simplices)
    coords = None if space.coords is None else {w: space.coord_of(w) for w in vertices}
    return SimplicialComplex.build(vertices, simplices, coords)


def connected_components(target) -> tuple:
    """Partition into components; deterministic, smallest cell first.

    In a simplicial subset a cell is joined to each of its faces in the
    family, found through its facets and through the faces the family
    lacks, so two open edges without their common vertex are two
    components.  Cell spaces group by their component labels (unlabeled
    cells are singletons).  Cells are walked in cell order, so groups are
    met in that of their smallest cells.
    """
    if not isinstance(target, CellularSubset):
        target = whole_space(require_space(target, "connected_components"))
    parent = target.parent
    groups = {}
    if isinstance(parent, CellSpace):
        for ident in sorted(target.members):
            label = parent.cell(ident).component
            key = ("cell", ident) if label is None else ("label", label)
            groups.setdefault(key, []).append(ident)
        return tuple(CellularSubset(parent, frozenset(g)) for g in groups.values())
    cells = target.sorted_members()
    index = {c: i for i, c in enumerate(cells)}
    parent_arr = list(range(len(cells)))

    def find(i):
        while parent_arr[i] != i:
            parent_arr[i] = parent_arr[parent_arr[i]]
            i = parent_arr[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent_arr[max(ri, rj)] = min(ri, rj)

    for c in cells:
        below, missing = [c], set()  # faces of c to scan, faces not in the family
        while below:
            cell = below.pop()
            for v in cell:
                face = cell - {v}
                if face in index:
                    union(index[c], index[face])
                elif len(face) > 1 and face not in missing:
                    missing.add(face)
                    below.append(face)
    for c in cells:
        groups.setdefault(find(index[c]), []).append(c)
    return tuple(CellularSubset(parent, frozenset(g)) for g in groups.values())


def induced_subcomplex(space: SimplicialComplex, cells) -> SimplicialComplex:
    """The subcomplex on a face-closed family of simplices of `space`."""
    space = require_simplicial(space, "induced_subcomplex")
    members = CellularSubset.of(space, cells).members
    if _unclosed_at(members) is not None:
        raise DegenerateInputError("cell family is not face-closed")
    return _subcomplex(space, members)


# ---------------------------------------------------------------------------
# barycentric subdivision: sd^k from flags, its vertices, carriers and
# cells, and the complex they make

# Flag tables kept, one per simplex dimension.
FLAG_TABLE_CACHE = 16
# Generated subdivisions kept, by (base, level); a self-map spec keeps its own.
FLAG_SUBDIVISION_CACHE = 8


@lru_cache(maxsize=FLAG_TABLE_CACHE)
def _flag_table(d: int) -> tuple:
    """The full flags of a d-simplex t = (r_0, ..., r_d) in canonical order.

    Returns (faces, picks, parities, flipped).  faces[i](t) is the i-th
    face of t that a flag passes through, as the sub-tuple of t its sorted
    positions pick.  Each flag is one ordering w of t's vertices:
    picks[j](barycentres) gives the faces {w_0}, {w_0, w_1}, ...,
    {w_0, ..., w_d} out of [face(t) for face in faces], parities[j] is the
    ordering's sign and flipped[j] its negative.  The table is checked
    once, by _check_flags, before it is cached."""
    number, flags, parities = {}, [], []
    for perm in permutations(range(d + 1)):
        flags.append([
            number.setdefault(tuple(sorted(perm[: i + 1])), len(number))
            for i in range(d + 1)
        ])
        inversions = sum(a > b for a, b in combinations(perm, 2))
        parities.append(-1 if inversions & 1 else 1)
    _check_flags(d, list(number), flags)
    faces = tuple(  # a slice, so that a vertex's face is a 1-tuple too
        itemgetter(*face) if len(face) > 1 else itemgetter(slice(face[0], face[0] + 1))
        for face in number
    )
    picks = tuple(  # itemgetter(i) gives no 1-tuple
        itemgetter(*ids) if d else tuple for ids in flags
    )
    return faces, picks, tuple(parities), tuple(-p for p in parities)


def _check_flags(d: int, faces: list, flags: list) -> None:
    """The flag table's check, one of the two that stand in for validating
    a generated sd^k; require_valid on the base is the other.

    Over a valid base, a generated cell could fail validate in only three
    ways, and each is refused here or there:
    - a repeated vertex: every face must be a nonempty increasing tuple of
      positions 0..d, so a barycentre never names a part twice and a face
      has one key (hence one vertex number) in whichever cell it is met;
      and a flag's faces must have 1, 2, ..., d + 1 positions, so no flag
      names a face twice;
    - a flag that is not strictly increasing: each face of a flag must lie
      inside the next;
    - with coordinates, a degenerate cell: the barycentres of a full,
      strictly increasing flag of an affinely independent simplex are
      independent, and require_valid(base) runs the rank test on the
      base's own simplices."""
    for face in faces:
        if not face or list(face) != sorted(set(face).intersection(range(d + 1))):
            raise InvalidComplexError(
                f"flag table of dimension {d}: face {face} is not an increasing "
                "tuple of positions"
            )
    for ids in flags:
        chain = [frozenset(faces[i]) for i in ids]
        if [len(face) for face in chain] != list(range(1, d + 2)) or not all(
            a < b for a, b in zip(chain, chain[1:])
        ):
            raise InvalidComplexError(
                f"flag table of dimension {d}: {[faces[i] for i in ids]} is not "
                "a strictly increasing flag"
            )


class FlagSubdivision(Record):
    """sd^level(base) as the flag tables generate it.

    Vertices are numbered.  A vertex of level j + 1 is the barycentre of a
    face of a level-j cell, keyed by the numbers of its parts in canonical
    order and numbered when first met, so a vertex that many cells share
    has one number and one object.

    vertices: the vertex objects of sd^level, by number (a TupleVertex
        from level 1 on, the base's own at level 0);
    parts: for each level j + 1, the parts of each of its vertices by
        number, as numbers of level j (of the base's vertex order at j = 0);
    carriers: the carrier of each vertex, by number: the base simplex (the
        base's own object) of the base vertices nested in it;
    order: the vertex numbers in vertex_key order;
    chains: for each base simplex rho, the fundamental chain of
        sd^level(rho) as (cells, signs): each cell a tuple of vertex
        numbers in canonical order, each sign its orientation against rho.
        The cells of the chains of base.maximal are the top cells of
        sd^level, and every simplex of sd^level is a face of one.
    """

    _fields = ("base", "level", "vertices", "parts", "carriers", "order", "chains")

    def top_cells(self):
        """(cell, rho) for each top cell of sd^level, rho its carrier, the
        rho in cell order, which does not follow the string hash."""
        for rho in sorted(self.base.maximal, key=cell_sort_key):
            for cell in self.chains[rho][0]:
                yield cell, rho

    def simplex(self, cell) -> frozenset:
        """A cell of vertex numbers as a simplex of vertex objects."""
        return frozenset(map(self.vertices.__getitem__, cell))

    def carrier(self, cell) -> frozenset:
        """The smallest base simplex holding a cell of vertex numbers."""
        return frozenset().union(*map(self.carriers.__getitem__, cell))

    @cached_property
    def view(self) -> tuple:
        """(sd^level as a complex, its carrier map down to base), built once
        and shared.  The simplices are the sub-tuples of the top cells, each
        its prefix's set joined with its last vertex's, so each vertex is
        hashed once.  A cell, the barycentres of a flag, has the carrier of
        its last vertex, the largest face.  Coordinates are barycentres,
        level by level."""
        base = self.base
        if not self.level:
            return base, {s: s for s in base.simplices}
        carriers = self.carriers
        alone = [frozenset((v,)) for v in self.vertices]
        made = {(n,): s for n, s in enumerate(alone)}
        carrier = {alone[n]: carriers[n] for n in self.order}
        for cell, _ in self.top_cells():
            for k in range(2, len(cell) + 1):
                for face in combinations(cell, k):
                    if face not in made:
                        made[face] = s = made[face[:-1]] | alone[face[-1]]
                        carrier[s] = carriers[face[-1]]
        coords = base.coords
        if coords is not None:
            for parts in self.parts:
                rows = _homogeneous_rows(coords)
                coords = [coords[p[0]] if len(p) == 1 else
                          _barycentre([rows[i] for i in p]) for p in parts]
            coords = tuple(map(coords.__getitem__, self.order))
        vertices = tuple(map(self.vertices.__getitem__, self.order))
        return SimplicialComplex(vertices, frozenset(carrier), coords), carrier


def _barycentre(rows: list) -> tuple:
    """The mean of points given as homogeneous integer rows (d*p, d): the
    rows scaled to their lcm of d and summed read (n*d*mean, n*d)."""
    common = lcm(*[row[-1] for row in rows])
    scaled = [[x * (common // row[-1]) for x in row] for row in rows]
    *axes, scale = map(sum, zip(*scaled))
    return tuple([Fraction(x, scale) for x in axes])


def flag_subdivision(base: SimplicialComplex, level: int) -> FlagSubdivision:
    """sd^level(base) from the flag tables, the one generator of sd^k: its
    vertices, carriers and cells, and its view as a complex.  The level
    and the base are read before the cache is, so a level of the wrong
    kind is refused, and so is an invalid base, at level 0 too.  What
    validate would find wrong in a generated sd^k is refused by
    require_valid on the base and by _check_flags on each flag table."""
    level = parse_integer(level, "subdivision level", least=0)
    return _flag_subdivision(require_simplicial(base, "subdivided_complex"), level)


@lru_cache(maxsize=FLAG_SUBDIVISION_CACHE)
def _flag_subdivision(base: SimplicialComplex, level: int) -> FlagSubdivision:
    """Each base simplex rho is expanded level by level from its vertex
    ranks: a cell t gives the barycentres of its faces, numbered in the
    level's table, and one cell per flag of t.  A flag's vertices are the
    barycentres of its faces, smallest face first, which is their canonical
    order because tuple vertices sort by length first.  With w_i the vertex
    of rho_i not in rho_(i-1), the cell's barycentric coordinates are
    triangular in w_0 ... w_d with a positive diagonal, so its sign against
    t is the parity of w_0 ... w_d in t's canonical order (Munkres,
    Elements of Algebraic Topology, section 17).

    The vertex objects are then made level by level from their parts, each
    key left until it is read.  A level's vertices in (size, the ranks of
    their parts in the vertex_key order below) order are in vertex_key
    order, since a barycentre's key is its length followed by its parts'
    keys, and a barycentre's carrier is that of its last part, the largest
    face of its flag, from level 2 on."""
    require_valid(base)
    rank = base._vertex_index
    tables = [{} for _ in range(level)]  # per level: parts -> number
    chains = {}
    for rho in base.simplices:
        faces, picks, same, flipped = _flag_table(len(rho) - 1)
        cells, signs = [tuple(sorted(map(rank.__getitem__, rho)))], [1]
        for table in tables:
            below = zip(cells, signs)
            cells, signs = [], []
            for t, sign in below:
                barycentres = [table.setdefault(face(t), len(table)) for face in faces]
                cells += [pick(barycentres) for pick in picks]
                signs += same if sign > 0 else flipped
        chains[rho] = (cells, signs)
    own = {s: s for s in base.simplices}
    vertices = base.vertices
    carriers = [own[frozenset([v])] for v in vertices]
    order = range(len(vertices))
    levels = [tuple(table) for table in tables]
    for depth, parts in enumerate(levels):
        ranks = [0] * len(order)
        for r, n in enumerate(order):
            ranks[n] = r
        order = sorted(
            range(len(parts)),
            key=lambda n: (len(parts[n]), list(map(ranks.__getitem__, parts[n]))),
        )
        if depth:
            carriers = [carriers[p[-1]] for p in parts]
        else:
            carriers = [own[frozenset(map(vertices.__getitem__, p))] for p in parts]
        new = tuple.__new__  # the parts are vertices, so no key is read yet
        vertices = [new(TupleVertex, map(vertices.__getitem__, p)) for p in parts]
    vertices, carriers, order = tuple(vertices), tuple(carriers), tuple(order)
    return FlagSubdivision(base, level, vertices, tuple(levels), carriers, order, chains)


def subdivided_complex(base: SimplicialComplex, level: int) -> tuple:
    """sd^level(base) as a complex with its carrier map, the view of
    flag_subdivision(base, level); neither may be mutated."""
    return flag_subdivision(base, level).view


# bench/tracer.py reads the subdivision cache's hit ratio through this name.
subdivided_complex.cache_info = _flag_subdivision.cache_info


def barycentric_subdivide(space: SimplicialComplex) -> tuple:
    """One barycentric subdivision, with its carrier map."""
    return subdivided_complex(space, 1)


def subdivision_f_vectors(base: SimplicialComplex):
    """The f-vectors of sd^0, sd^1, ... of a valid complex, predicted
    without subdividing.  A j-simplex of sd K is a chain of j + 1 faces, and
    (j+1)! S(i+1, j+1) chains end in a given i-face: the surjections of its
    i + 1 vertices onto j + 1 ranks (Brenti and Welker, "f-vectors of
    barycentric subdivisions", Math. Z. 2008).  A cell space is refused
    here, not at the first f-vector."""
    base = require_simplicial(base, "subdivision_f_vectors")
    sizes = range(1, max(base.dim, 0) + 2)
    f = [sum(len(s) == n for s in base.simplices) for n in sizes]
    onto = [[sum((-1) ** t * comb(k, t) * (k - t) ** n for t in range(k + 1))
             for k in sizes] for n in sizes]
    return _f_vectors(f, onto)


def _f_vectors(f: list, onto: list):
    while True:
        yield tuple(f)
        f = [sum(n * onto[i][j] for i, n in enumerate(f)) for j in range(len(f))]


def sd_positions(base: SimplicialComplex) -> dict:
    """Barycentric positions of subdivision vertices over the base vertices.

    positions[w] is a sparse {base vertex: Fraction} map summing to 1,
    filled in on lookup from the positions of w's parts, so each is
    computed once.  Works for any nesting level because subdivision
    vertices are tuples of the level below.  The position maps are shared;
    do not mutate them.
    """
    base = require_simplicial(base, "sd_positions")
    return _Positions({v: {v: Fraction(1)} for v in base.vertices})


class _Positions(dict):
    def __missing__(self, vertex):
        if not isinstance(vertex, tuple):
            raise DegenerateInputError(f"not a subdivision vertex: {shown(vertex)}")
        total = {}
        for part in vertex:
            for v, w in self[part].items():
                total[v] = total.get(v, Fraction(0)) + w
        self[vertex] = position = {v: w / len(vertex) for v, w in total.items()}
        return position
