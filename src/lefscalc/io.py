"""Reading and writing problem files.

A problem file is a JSON object with schema tag "lefscalc/1" describing a
complex (simplicial or cell space) plus optional map, values, support,
trace overrides, normal data, and a vertex functional.  Rational numbers
travel as strings "p/q" (the "/q" omitted when the denominator is one),
Gaussian rationals as {"re": ..., "im": ...}, simplices as sorted vertex
arrays, and subdivision vertices as nested arrays.

Reading checks the JSON (syntax, repeated keys, schema) and decodes vertex
names; each table, family, matrix, level and cell then goes to the library
reader that owns it, and that reader makes its own refusals.
"""

from __future__ import annotations

import json
from functools import partial
from typing import TYPE_CHECKING

from .complexes import (
    Cell,
    CellSpace,
    CellularSubset,
    SimplicialComplex,
    TupleVertex,
    canonical_tuple,
    cell_sort_key,
    read_table,
    require_valid,
    subdivided_complex,
    subdivision_f_vectors,
    vertex_key,
)
from .errors import ParseError, shown
from .euler import ConstructibleFunction
from .exact import GaussianRational, decimal_integer, format_rational, parse_integer
from .maps import SelfMapSpec, SimplicialMap
from .records import Record
from .reports import read_json

if TYPE_CHECKING:  # the fixed-point layer loads only when used
    from .fixedpoint import TracedProblem

SCHEMA = "lefscalc/1"

_TOP_KEYS = {
    "schema",
    "complex",
    "cells",
    "map",
    "values",
    "support",
    "traces",
    "normal_data",
    "ell",
}
_MAP_KEYS = {
    "vertex_map",
    "subdivision_level",
    "target",
    "complex_model",
    "non_characteristic",
}


def vertex_to_json(v):
    if isinstance(v, tuple):
        return [vertex_to_json(x) for x in v]
    return v


def vertex_from_json(x, table: dict):
    """An int, a string, or a tuple read from an array.  A parse passes one
    dict `table`, keyed by each array's text, so each distinct array it
    reads is read once, into one TupleVertex.  The text of a decoded JSON
    value tells its types apart, so two arrays share it only when they
    name the same vertex."""
    if isinstance(x, list):
        text = repr(x)
        v = table.get(text)
        if v is None:
            v = table[text] = TupleVertex([vertex_from_json(y, table) for y in x])
        return v
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ParseError(f"invalid vertex {shown(x)}")
    return x


def simplex_to_json(cell) -> list:
    return [vertex_to_json(v) for v in canonical_tuple(cell)]


def _array(x, what: str, pairs: bool = False) -> list:
    """`x` when it is a JSON array, of [key, value] pairs with `pairs`: an
    array io walks itself, to decode the names in it or to check its
    entries before the library reads them."""
    if not isinstance(x, list) or pairs and not all(
        isinstance(pair, list) and len(pair) == 2 for pair in x
    ):
        raise ParseError(f"{what} must be an array{' of pairs' * pairs}")
    return x


def _read_names(raw, what: str, where: str, known, decode, role="vertex") -> dict:
    """read_table of the JSON table `raw` under `where`: a pair's name is
    decoded by `decode`, an object key names a string vertex or cell or else
    the int it spells in decimal, and a name outside `known` is refused."""

    def key(name):
        if not isinstance(raw, dict):
            k = decode(name)
        elif name in known:
            k = name
        else:
            k = decimal_integer(name)
        if k not in known:
            raise ParseError(f"unknown {role} {shown(name)} in {where}")
        return k

    return read_table(raw, what, key)


def _cell_ref_from_json(x, space, table: dict):
    """A cell reference, its vertex array decoded; the space's cell_key reads it."""
    if isinstance(space, SimplicialComplex):
        x = [vertex_from_json(v, table) for v in _array(x, "a simplex reference")]
    return space.cell_key(x)


def _cell_table(data, where: str, what: str, space, table: dict) -> dict:
    """The {cell: JSON value} table under `where`."""
    decode = partial(_cell_ref_from_json, space=space, table=table)
    return _read_names(data[where], what, where, space.cell_keys, decode, "cell")


def _cell_ref_to_json(cell, space):
    return simplex_to_json(cell) if isinstance(space, SimplicialComplex) else cell


def _check_keys(block, allowed, where):
    if not isinstance(block, dict):
        raise ParseError(f"{where} must be an object")
    extra = sorted(set(block) - allowed)
    if extra:
        raise ParseError(f"unknown keys {extra} in {where}")


def parse_complex_block(block, table=None) -> SimplicialComplex:
    """The complex of a `complex` block; `table` is the parse's vertex
    table."""
    _check_keys(block, {"vertices", "coords", "simplices"}, "complex")
    table = {} if table is None else table
    try:
        vertices = [
            vertex_from_json(v, table)
            for v in _array(block["vertices"], "complex.vertices")
        ]
        simplices = [
            [vertex_from_json(v, table) for v in _array(s, "a simplex")]
            for s in _array(block["simplices"], "complex.simplices")
        ]
    except KeyError as exc:
        raise ParseError(f"malformed complex block: {exc}") from exc
    coords = block.get("coords")  # rows: a JSON key names no int or tuple vertex
    if coords is not None:
        _array(coords, "complex.coords")
    space = SimplicialComplex.build(vertices, simplices, coords)
    require_valid(space)
    return space


def complex_to_json(space: SimplicialComplex) -> dict:
    block = {
        "vertices": [vertex_to_json(v) for v in space.vertices],
        "simplices": [
            simplex_to_json(s)
            for s in sorted(space.simplices, key=cell_sort_key)
        ],
    }
    if space.coords is not None:
        block["coords"] = [
            [format_rational(x) for x in row] for row in space.coords
        ]
    return block


def parse_cells_block(block) -> CellSpace:
    cells = []
    for entry in _array(block, "cells"):
        _check_keys(entry, {"id", "dim", "component"}, "cells[]")
        try:
            cells.append(Cell(entry["id"], entry["dim"], entry.get("component")))
        except KeyError as exc:
            raise ParseError(f"malformed cell entry: {exc}") from exc
    return CellSpace.build(cells)


def cells_to_json(space: CellSpace) -> list:
    return [
        {"id": c.ident, "dim": c.dim, "component": c.component}
        for c in space.cells
    ]


def _nested(x, depth: int) -> bool:
    """Whether `x` is an array `depth` deep along its first elements, as the
    JSON form of every vertex of sd^depth is."""
    for _ in range(depth):
        if not isinstance(x, list) or not x:
            return False
        x = x[0]
    return True


def _parse_vertex_map(raw, space, level: int, images, table: dict) -> dict:
    """The vertex map from sd^level(space) to `images`.  Its entries name
    distinct sources, so it names them all once it has as many entries as
    sd^level's predicted vertex count; a map with fewer is refused before
    anything is subdivided, and so is a source nested less than `level`
    deep, which also bounds the level by JSON's own nesting limit."""
    if not isinstance(raw, (dict, list)):
        raise ParseError("vertex_map must be an object or a pair list")
    for k, f in zip(range(level + 1), subdivision_f_vectors(space)):
        if f[0] > len(raw):
            raise ParseError(
                f"vertex_map misses sources: {len(raw)} entries for subdivision "
                f"level {level}, but sd^{k} has {f[0]} vertices"
            )
        if len(f) == 1:  # sd keeps a complex of points as it is
            break
    names = raw if isinstance(raw, dict) else (
        pair[0] for pair in _array(raw, "vertex_map", True)
    )
    for name in names:
        if not _nested(name, level):
            raise ParseError(
                f"source vertex {shown(name)} in vertex_map is not nested {level} "
                f"deep, as every vertex of sd^{level} is"
            )
    sources = frozenset(subdivided_complex(space, level)[0].vertices)
    vm = _read_names(
        raw, "images for vertex", "vertex_map", sources,
        partial(vertex_from_json, table=table), "source vertex",
    )
    images = {v: v for v in images}
    for src, dst in vm.items():
        vm[src] = images.get(vertex_from_json(dst, table))
        if vm[src] is None:
            raise ParseError(f"unknown target vertex {shown(dst)} in vertex_map")
    return vm


def vertex_map_to_json(vm: dict, level: int):
    items = sorted(vm.items(), key=lambda kv: vertex_key(kv[0]))
    if level == 0 and all(isinstance(k, str) for k in vm):
        return {k: vertex_to_json(v) for k, v in items}
    return [[vertex_to_json(k), vertex_to_json(v)] for k, v in items]


class Problem(Record):
    """Everything a problem file can describe, already validated.  space:
    a SimplicialComplex or a CellSpace; push_map: present when the map has
    a target; any other block the file leaves out is None, or False."""

    __slots__ = _fields = (
        "space", "spec", "push_map", "phi", "support", "traces", "normal",
        "complex_model", "non_characteristic", "ell",
    )

    def traced(self) -> TracedProblem:
        from .fixedpoint import TracedProblem

        if self.spec is None:
            raise ParseError("this problem has no self-map block")
        return TracedProblem(
            spec=self.spec, support=self.support, traces=self.traces,
            normal=self.normal, complex_model=self.complex_model,
            non_characteristic=self.non_characteristic,
        )


def parse_problem(data) -> Problem:
    if not isinstance(data, dict):
        raise ParseError("problem file must be a JSON object")
    _check_keys(data, _TOP_KEYS, "problem")
    if data.get("schema") != SCHEMA:
        raise ParseError(
            f"unsupported schema {shown(data.get('schema'))}; expected {SCHEMA!r}"
        )
    has_complex = "complex" in data
    has_cells = "cells" in data
    if has_complex == has_cells:
        raise ParseError("exactly one of 'complex' or 'cells' is required")
    table = {}  # this parse's tuple vertices, one object each
    if has_complex:
        space = parse_complex_block(data["complex"], table)
    else:
        space = parse_cells_block(data["cells"])

    spec = push_map = None
    complex_model = non_characteristic = False
    if "map" in data:
        block = data["map"]
        if not isinstance(block, dict):
            raise ParseError("map block must be an object")
        _check_keys(block, _MAP_KEYS, "map")
        if not isinstance(space, SimplicialComplex):
            raise ParseError("maps are only supported on simplicial complexes")
        level = block.get("subdivision_level", 0)
        level = parse_integer(level, "subdivision level", least=0)
        for flag in ("complex_model", "non_characteristic"):
            if flag in block and not isinstance(block[flag], bool):
                raise ParseError(f"{flag} must be a boolean")
        complex_model = bool(block.get("complex_model", False))
        non_characteristic = bool(block.get("non_characteristic", False))
        if "vertex_map" not in block:
            raise ParseError("map block needs a vertex_map")
        if "target" in block:
            if level != 0:
                raise ParseError(
                    "a map with a separate target cannot be subdivided"
                )
            target = parse_complex_block(block["target"], table)
            vm = _parse_vertex_map(
                block["vertex_map"], space, 0, target.vertices, table
            )
            push_map = SimplicialMap.build(space, target, vm)
        else:
            vm = _parse_vertex_map(
                block["vertex_map"], space, level, space.vertices, table
            )
            spec = SelfMapSpec.build(space, level, vm)

    phi = support = traces = normal = ell = None
    if "values" in data:
        values = _cell_table(data, "values", "values for cell", space, table)
        phi = ConstructibleFunction.of(space, values)
    if "support" in data:
        refs = _array(data["support"], "support")
        cells = [_cell_ref_from_json(x, space, table) for x in refs]
        support = CellularSubset.of(space, cells)
    if "traces" in data:
        traces = _cell_table(data, "traces", "trace values for cell", space, table)
        traces = {cell: GaussianRational.of(x) for cell, x in traces.items()}
    if "normal_data" in data:
        from .fixedpoint import NormalData

        if not isinstance(data["normal_data"], dict):
            raise ParseError("normal_data must map component indices to matrices")
        normal = NormalData.of(data["normal_data"])
    if "ell" in data:
        from .morse import VertexFunctional

        if not isinstance(space, SimplicialComplex):
            raise ParseError("a functional needs a simplicial complex")
        heights = _read_names(
            data["ell"], "heights for vertex", "ell", frozenset(space.vertices),
            partial(vertex_from_json, table=table),
        )
        ell = VertexFunctional.of(space, heights)

    return Problem(
        space=space, spec=spec, push_map=push_map, phi=phi, support=support,
        traces=traces, normal=normal, complex_model=complex_model,
        non_characteristic=non_characteristic, ell=ell,
    )


def loads(text: str) -> Problem:
    return parse_problem(read_json(text))


def load(path) -> Problem:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


# ---------------------------------------------------------------------------
# serialization of problems (used to round-trip fixtures through the CLI)

def problem_to_json(
    space,
    spec: SelfMapSpec | None = None,
    push_map: SimplicialMap | None = None,
    phi: ConstructibleFunction | None = None,
    support=None,
    traces=None,
    normal: NormalData | None = None,
    complex_model: bool = False,
    non_characteristic: bool = False,
    ell: VertexFunctional | None = None,
) -> dict:
    data = {"schema": SCHEMA}
    if isinstance(space, SimplicialComplex):
        data["complex"] = complex_to_json(space)
    elif isinstance(space, CellSpace):
        data["cells"] = cells_to_json(space)
    else:
        raise ParseError(f"cannot serialize {type(space).__name__}")
    if spec is not None and push_map is not None:
        raise ParseError("a problem carries either a self-map or a target map")
    if spec is not None:
        data["map"] = {
            "subdivision_level": spec.level,
            "vertex_map": vertex_map_to_json(spec.vertex_map, spec.level),
        }
    if push_map is not None:
        data["map"] = {
            "subdivision_level": 0,
            "target": complex_to_json(push_map.target),
            "vertex_map": vertex_map_to_json(push_map.vertex_map, 0),
        }
    if "map" in data:
        if complex_model:
            data["map"]["complex_model"] = True
        if non_characteristic:
            data["map"]["non_characteristic"] = True
    if phi is not None:
        data["values"] = [
            [_cell_ref_to_json(cell, space), value.to_json()]
            for cell, value in phi.sorted_items()
        ]
    if support is not None:
        data["support"] = [
            _cell_ref_to_json(cell, space) for cell in support.sorted_members()
        ]
    if traces is not None:
        data["traces"] = [
            [_cell_ref_to_json(cell, space), value.to_json()]
            for cell, value in sorted(
                traces.items(), key=lambda kv: cell_sort_key(kv[0])
            )
        ]
    if normal is not None:
        data["normal_data"] = {
            str(index): matrix.to_json() for index, matrix in normal.matrices
        }
    if ell is not None:
        data["ell"] = [
            [vertex_to_json(v), format_rational(x)]
            for v, x in sorted(
                ell.values.items(), key=lambda kv: vertex_key(kv[0])
            )
        ]
    return data


def traced_problem_to_json(p: TracedProblem, ell=None) -> dict:
    return problem_to_json(
        p.spec.base,
        spec=p.spec,
        support=p.support,
        traces=p.traces,
        normal=p.normal,
        complex_model=p.complex_model,
        non_characteristic=p.non_characteristic,
        ell=ell,
    )


def dumps(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True)
