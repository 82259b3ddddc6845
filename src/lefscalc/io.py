"""Reading and writing problem files.

A problem file is a JSON object with schema tag "lefscalc/1" describing a
complex (simplicial or cell space) plus optional map, values, support,
trace overrides, normal data, and a vertex functional.  Rational numbers
travel as strings "p/q" (the "/q" omitted when the denominator is one),
Gaussian rationals as {"re": ..., "im": ...}, simplices as sorted vertex
arrays, and subdivision vertices as nested arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .complexes import (
    Cell,
    CellSpace,
    CellularSubset,
    SimplicialComplex,
    canonical_tuple,
    cell_sort_key,
    intern_vertex,
    require_valid,
    subdivided_complex,
    vertex_key,
)
from .errors import DegenerateInputError, ParseError
from .euler import ConstructibleFunction
from .exact import (
    RationalMatrix,
    format_rational,
    parse_gaussian,
    parse_rational,
)
from .fixedpoint import NormalData, TracedProblem
from .maps import SelfMapSpec, SimplicialMap
from .morse import VertexFunctional

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


def vertex_from_json(x):
    if isinstance(x, bool):
        raise ParseError(f"invalid vertex {x!r}")
    if isinstance(x, (int, str)):
        return x
    if isinstance(x, list):
        return intern_vertex(tuple(vertex_from_json(y) for y in x))
    raise ParseError(f"invalid vertex {x!r}")


def simplex_to_json(cell) -> list:
    return [vertex_to_json(v) for v in canonical_tuple(cell)]


def _cell_ref_from_json(x, space):
    """A cell reference: vertex array for simplicial, id string for cells."""
    if isinstance(space, SimplicialComplex):
        if not isinstance(x, list):
            raise ParseError(f"simplex reference must be an array, got {x!r}")
        cell = frozenset(vertex_from_json(v) for v in x)
        if not space.has(cell):
            raise ParseError(f"unknown simplex {x!r}")
        return cell
    if not isinstance(x, str):
        raise ParseError(f"cell reference must be an id string, got {x!r}")
    return x


def _cell_ref_to_json(cell, space):
    if isinstance(space, SimplicialComplex):
        return simplex_to_json(cell)
    return cell


def _check_keys(block, allowed, where):
    if not isinstance(block, dict):
        raise ParseError(f"{where} must be an object")
    extra = sorted(set(block) - allowed)
    if extra:
        raise ParseError(f"unknown keys {extra} in {where}")


def parse_complex_block(block) -> SimplicialComplex:
    _check_keys(block, {"vertices", "coords", "simplices"}, "complex")
    try:
        vertices = [vertex_from_json(v) for v in block["vertices"]]
        simplices = [
            frozenset(vertex_from_json(v) for v in s)
            for s in block["simplices"]
        ]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed complex block: {exc}") from exc
    coords = None
    if block.get("coords") is not None:
        raw = block["coords"]
        if len(raw) != len(vertices):
            raise ParseError("coords must align with the vertex list")
        coords = tuple(
            tuple(parse_rational(x) for x in row) for row in raw
        )
    space = SimplicialComplex.build(tuple(vertices), simplices, coords)
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
    if not isinstance(block, list):
        raise ParseError("cells must be a list")
    cells = []
    for entry in block:
        _check_keys(entry, {"id", "dim", "component"}, "cells[]")
        try:
            ident = entry["id"]
            dim = entry["dim"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed cell entry: {exc}") from exc
        if not isinstance(ident, str) or isinstance(dim, bool) or not isinstance(dim, int):
            raise ParseError(f"cell entries need a string id and integer dim")
        component = entry.get("component")
        if component is not None and not isinstance(component, str):
            raise ParseError(f"cell {ident!r} needs a string or null component")
        cells.append(Cell(ident, dim, component))
    return CellSpace.build(cells)


def cells_to_json(space: CellSpace) -> list:
    return [
        {"id": c.ident, "dim": c.dim, "component": c.component}
        for c in space.cells
    ]


def _keyed_by_vertex(raw: dict, vertices, unknown: str) -> list:
    """(vertex, value) pairs of a JSON object keyed by vertex.  Object keys
    are strings, so a key names a string vertex or else an integer one;
    `unknown` formats the error for a key that names neither."""
    strings = {v for v in vertices if isinstance(v, str)}
    ints = {v for v in vertices if isinstance(v, int)}
    pairs = []
    for key, value in raw.items():
        if key not in strings:
            try:
                num = int(key)
            except ValueError:
                raise ParseError(unknown.format(key))
            if num not in ints:
                raise ParseError(unknown.format(key))
            key = num
        pairs.append((key, value))
    return pairs


def _parse_vertex_map(raw, source_vertices, image_vertices) -> dict:
    vm = {}
    if isinstance(raw, dict):
        for src, dst in _keyed_by_vertex(
            raw, source_vertices, "unknown source vertex {!r}"
        ):
            vm[src] = vertex_from_json(dst)
    elif isinstance(raw, list):
        for pair in raw:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError("vertex_map pairs must be [source, target]")
            vm[vertex_from_json(pair[0])] = vertex_from_json(pair[1])
    else:
        raise ParseError("vertex_map must be an object or a pair list")
    source_set = set(source_vertices)
    image_set = set(image_vertices)
    for src, dst in vm.items():
        if src not in source_set:
            raise ParseError(f"unknown source vertex {src!r} in vertex_map")
        if dst not in image_set:
            raise ParseError(f"unknown target vertex {dst!r} in vertex_map")
    missing = [v for v in source_vertices if v not in vm]
    if missing:
        raise ParseError(f"vertex_map misses sources {missing[:4]}")
    return vm


def vertex_map_to_json(vm: dict, level: int):
    items = sorted(vm.items(), key=lambda kv: vertex_key(kv[0]))
    if level == 0 and all(isinstance(k, str) for k in vm):
        return {k: vertex_to_json(v) for k, v in items}
    return [[vertex_to_json(k), vertex_to_json(v)] for k, v in items]


@dataclass(frozen=True, eq=False)
class Problem:
    """Everything a problem file can describe, already validated."""

    space: object                       # SimplicialComplex | CellSpace
    spec: SelfMapSpec | None
    push_map: SimplicialMap | None      # present when the map has a target
    phi: ConstructibleFunction | None
    support: CellularSubset | None
    traces: dict | None
    normal: NormalData | None
    complex_model: bool
    non_characteristic: bool
    ell: VertexFunctional | None

    def traced(self) -> TracedProblem:
        if self.spec is None:
            raise ParseError("this problem has no self-map block")
        return TracedProblem(
            spec=self.spec,
            support=self.support,
            traces=self.traces,
            normal=self.normal,
            complex_model=self.complex_model,
            non_characteristic=self.non_characteristic,
        )


def _cell_values(data, key: str, space) -> dict:
    """The {cell: value} table of a list of [cell, value] pairs under
    `key`; a cell named twice is refused, not overwritten."""
    entries = data[key]
    if not isinstance(entries, list):
        raise ParseError(f"{key} must be a list of [cell, value] pairs")
    table = {}
    for pair in entries:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{key} entries must be [cell, value] pairs")
        cell = _cell_ref_from_json(pair[0], space)
        if cell in table:
            raise ParseError(
                f"{key} name cell {_cell_ref_to_json(cell, space)!r} twice"
            )
        table[cell] = parse_gaussian(pair[1])
    return table


def parse_problem(data) -> Problem:
    if not isinstance(data, dict):
        raise ParseError("problem file must be a JSON object")
    _check_keys(data, _TOP_KEYS, "problem")
    if data.get("schema") != SCHEMA:
        raise ParseError(
            f"unsupported schema {data.get('schema')!r}; expected {SCHEMA!r}"
        )
    has_complex = "complex" in data
    has_cells = "cells" in data
    if has_complex == has_cells:
        raise ParseError("exactly one of 'complex' or 'cells' is required")
    if has_complex:
        space = parse_complex_block(data["complex"])
    else:
        space = parse_cells_block(data["cells"])

    spec = None
    push_map = None
    complex_model = False
    non_characteristic = False
    if "map" in data:
        block = data["map"]
        if not isinstance(block, dict):
            raise ParseError("map block must be an object")
        _check_keys(block, _MAP_KEYS, "map")
        if not isinstance(space, SimplicialComplex):
            raise ParseError("maps are only supported on simplicial complexes")
        level = block.get("subdivision_level", 0)
        if isinstance(level, bool) or not isinstance(level, int) or level < 0:
            raise ParseError("subdivision_level must be a non-negative integer")
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
            target = parse_complex_block(block["target"])
            vm = _parse_vertex_map(
                block["vertex_map"], space.vertices, target.vertices
            )
            push_map = SimplicialMap.build(space, target, vm)
        else:
            known = subdivided_complex(space, level)[0].vertices
            vm = _parse_vertex_map(block["vertex_map"], known, space.vertices)
            spec = SelfMapSpec.build(space, level, vm)

    phi = None
    if "values" in data:
        phi = ConstructibleFunction.of(space, _cell_values(data, "values", space))

    support = None
    if "support" in data:
        refs = data["support"]
        if not isinstance(refs, list):
            raise ParseError("support must be a list of cells")
        support = CellularSubset.of(
            space, {_cell_ref_from_json(x, space) for x in refs}
        )

    traces = _cell_values(data, "traces", space) if "traces" in data else None

    normal = None
    if "normal_data" in data:
        block = data["normal_data"]
        if not isinstance(block, dict):
            raise ParseError("normal_data must map component indices to matrices")
        matrices, keys = {}, {}
        for key, rows in block.items():
            try:
                index = int(key)
            except ValueError:
                raise ParseError(f"component index {key!r} is not an integer")
            if index in keys:
                raise ParseError(
                    f"normal_data keys {keys[index]!r} and {key!r} both name "
                    f"component {index}"
                )
            keys[index] = key
            try:
                matrices[index] = RationalMatrix.of(
                    [[parse_rational(x) for x in row] for row in rows]
                )
            except (TypeError, ParseError) as exc:
                raise ParseError(f"bad normal matrix for {key!r}: {exc}") from exc
        normal = NormalData.of(matrices)

    ell = None
    if "ell" in data:
        if not isinstance(space, SimplicialComplex):
            raise ParseError("a functional needs a simplicial complex")
        raw = data["ell"]
        if isinstance(raw, dict):
            entries = _keyed_by_vertex(
                raw, space.vertices, "unknown vertex {!r} in ell"
            )
        elif isinstance(raw, list):
            entries = [
                (vertex_from_json(pair[0]), pair[1])
                for pair in raw
                if isinstance(pair, list) and len(pair) == 2
            ]
            if len(entries) != len(raw):
                raise ParseError("ell pairs must be [vertex, value]")
        else:
            raise ParseError("ell must be an object or a pair list")
        try:
            ell = VertexFunctional.of(space, dict(entries))
        except (ParseError, ValueError, TypeError) as exc:
            raise ParseError(f"bad functional: {exc}") from exc
        except DegenerateInputError as exc:
            raise ParseError(f"bad functional: {exc}") from exc

    return Problem(
        space=space,
        spec=spec,
        push_map=push_map,
        phi=phi,
        support=support,
        traces=traces,
        normal=normal,
        complex_model=complex_model,
        non_characteristic=non_characteristic,
        ell=ell,
    )


def loads(text: str) -> Problem:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integers past the digit limit
        raise ParseError(f"not valid JSON: {exc}") from exc
    return parse_problem(data)


def load(path) -> Problem:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return loads(text)


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
