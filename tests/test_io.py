"""Problem files and report payloads: round-trips and rejection paths."""

import json
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

import lefscalc.fixtures as fx
import oracles
from lefscalc import complexes
from lefscalc.complexes import CellularSubset, TupleVertex, subdivided_complex, vertex_key
from lefscalc.errors import DegenerateInputError, ParseError
from lefscalc.euler import ConstructibleFunction
from lefscalc import exact
from lefscalc.exact import GaussianRational
from lefscalc.fixedpoint import NormalData, TracedProblem
from lefscalc.io import (
    SCHEMA,
    complex_to_json,
    cells_to_json,
    dumps,
    loads,
    parse_cells_block,
    parse_complex_block,
    parse_problem,
    problem_to_json,
    traced_problem_to_json,
    vertex_from_json,
    vertex_map_to_json,
    vertex_to_json,
)
from lefscalc.maps import SelfMapSpec
from lefscalc.morse import VertexFunctional
from lefscalc.reports import FIELDS, Report, parse_report, print_report


def g(x):
    return GaussianRational.of(x)


def reparse(data):
    return loads(dumps(data))


# ---------------------------------------------------------------------------
# vertices and blocks


def test_vertex_json_roundtrip():
    for v in ("a", 3, ("a", "b"), (("u", "v"), ("v", "w"))):
        assert vertex_from_json(vertex_to_json(v), {}) == v
    with pytest.raises(ParseError):
        vertex_from_json(True, {})
    with pytest.raises(ParseError):
        vertex_from_json(1.5, {})


def _tuples_within(v):
    """v and every tuple nested in it."""
    if isinstance(v, tuple):
        yield v
        for part in v:
            yield from _tuples_within(part)


def test_parsed_subdivision_vertices_are_one_object_each():
    space = subdivided_complex(fx.disk(), 2)[0]
    cells = sorted(space.simplices, key=complexes.cell_sort_key)
    phi = ConstructibleFunction.of(space, [(c, i + 1) for i, c in enumerate(cells)])
    ell = VertexFunctional.of(space, {v: i for i, v in enumerate(space.vertices)})
    text = dumps(problem_to_json(space, phi=phi, ell=ell))
    problem = loads(text)
    occurrences = list(problem.space.vertices)
    for cells_of in (problem.space.simplices, problem.phi.values):
        occurrences += [v for cell in cells_of for v in cell]
    occurrences += list(problem.ell.values)
    objects = {}
    for vertex in occurrences:
        for part in _tuples_within(vertex):
            objects.setdefault(part, set()).add(id(part))
    assert len(objects) > len(space.vertices)  # nested tuples are counted too
    assert all(len(ids) == 1 for ids in objects.values())
    # every tuple read, nested or not, is a TupleVertex carrying its key
    assert all(
        type(part) is TupleVertex
        for vertex in occurrences for part in _tuples_within(vertex)
    )
    for vertex in problem.space.vertices:
        assert vertex_key(vertex) == oracles.vertex_key_recursive(vertex)
    # a second parse reads its own objects, and their keys come out alike
    again = loads(text)
    assert again.space == problem.space
    for vertex in again.space.vertices:
        assert vertex_key(vertex) == oracles.vertex_key_recursive(vertex)
    assert problem.space == space and problem.ell.values == ell.values
    assert len(problem.phi.values) == len(cells)


def test_one_parse_reads_each_vertex_once_with_its_own_types():
    table = {}
    first = vertex_from_json([1, "a"], table)
    assert vertex_from_json([1, "a"], table) is first
    nested = vertex_from_json([[1], [2]], table)
    assert nested == ((1,), (2,)) and nested[0] is vertex_from_json([1], table)
    mixed = vertex_from_json([[1], "a"], table)
    assert mixed[0] is nested[0]
    assert vertex_key(mixed) == oracles.vertex_key_recursive(((1,), "a"))
    # within one file, (1,) and ("1",) stay two vertices of their own types
    problem = loads(json.dumps({
        "schema": SCHEMA,
        "complex": {"vertices": [[1], ["1"], [[1], "1"]],
                    "simplices": [[[1]], [["1"]], [[[1], "1"]]]},
        "ell": [[[1], "0"], [["1"], "1"], [[[1], "1"], "2"]],
    }))
    one, text_one, pair = problem.space.vertices
    assert (one, text_one, pair) == ((1,), ("1",), ((1,), "1"))
    assert pair[0] is one and pair[1] == "1"
    assert [type(v[0]) for v in (one, text_one)] == [int, str]
    assert [problem.ell(v) for v in (one, text_one, pair)] == [0, 1, 2]
    for vertex in problem.space.vertices:
        assert vertex_key(vertex) == oracles.vertex_key_recursive(vertex)


def test_one_parse_reads_each_array_and_each_literal_once(monkeypatch):
    space = subdivided_complex(fx.disk(), 2)[0]
    cells = sorted(space.simplices, key=complexes.cell_sort_key)
    literals = [Fraction(1, 3), Fraction(-2), Fraction(5, 7), Fraction(4)]
    phi = ConstructibleFunction.of(
        space, [(c, literals[i % 4]) for i, c in enumerate(cells)]
    )
    data = problem_to_json(space, phi=phi)
    text = dumps(data)
    strings = [x for row in data["complex"]["coords"] for x in row]
    strings += [x for _, value in data["values"] for x in value.values()]
    assert {"1/3", "-2", "5/7", "4", "0"} <= set(strings)
    parsed, arrays = [], []
    read = exact.parse_rational

    def counting(x):
        parsed.append(x)
        return read(x)

    monkeypatch.setattr(exact, "parse_rational", counting)
    problem = loads(text)
    # each literal in the file is read once, by the reader of its value
    assert Counter(x for x in parsed if isinstance(x, str)) == Counter(strings)
    values = [problem.phi.values[c] for c in cells]
    assert values == [g(literals[i % 4]) for i in range(len(cells))]
    assert problem.space == space
    # the vertex table is keyed by array text, one entry per distinct array
    table = {}
    for raw in (["a"], [["a"], ["a", "b"]], ["a"], [1], ["1"]):
        arrays.append(vertex_from_json(raw, table))
    assert arrays[0] is arrays[2] is arrays[1][0]
    assert arrays[3] != arrays[4]
    assert sorted(table) == sorted(map(repr, (["a"], ["a", "b"], [["a"], ["a", "b"]], [1], ["1"])))


@pytest.mark.parametrize(
    "raw",
    [{"re": "1/0"}, {"re": 1.5}, {"im": True}, {"re": "1", "x": "2"}, "abc",
     1.5, None, ["1"], "1e999999", {"re": "x" * 5000}],
)
def test_values_read_through_the_literal_table_keep_their_refusals(raw):
    # a value is read by GaussianRational.of alone, and refused as it refuses
    expected = _refusal(lambda: GaussianRational.of(raw))
    assert expected is not None
    data = minimal()
    data["values"] = [[["a"], raw]]
    assert _refusal(lambda: parse_problem(data)) == expected
    data["values"] = [[["a"], "1/2"], [["b"], raw]]
    assert _refusal(lambda: parse_problem(data)) == expected


def _refusal(attempt):
    try:
        attempt()
    except DegenerateInputError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "raw, text",
    [([True], "invalid vertex True"), (1.5, "invalid vertex 1.5"),
     (None, "invalid vertex None"), ([["a"], [None]], "invalid vertex None")],
)
def test_bad_vertices_are_refused_with_the_same_text(raw, text):
    with pytest.raises(ParseError) as caught:
        vertex_from_json(raw, {})
    assert str(caught.value) == text


def test_complex_block_roundtrip():
    for make in (fx.interval_complex, fx.hexagon, fx.disk, fx.sphere2):
        space = make()
        assert parse_complex_block(complex_to_json(space)) == space


def test_complex_block_rejections():
    with pytest.raises(ParseError):
        parse_complex_block({"vertices": ["a"], "simplices": [["a"]], "junk": 1})
    with pytest.raises(ParseError):
        parse_complex_block({"vertices": ["a"]})
    with pytest.raises(
        DegenerateInputError, match="^coordinate rows do not align with the vertex list$"
    ):
        parse_complex_block(
            {"vertices": ["a", "b"], "simplices": [["a"]], "coords": [[0]]}
        )


def test_cells_block_roundtrip():
    space = fx.cp1_cellspace()
    assert parse_cells_block(cells_to_json(space)) == space


def test_cells_block_rejections():
    with pytest.raises(ParseError):
        parse_cells_block([{"id": "x", "dim": 0, "extra": 1}])
    with pytest.raises(ParseError):
        parse_cells_block([{"id": "x"}])
    with pytest.raises(DegenerateInputError, match="^not a cell id: 3$"):
        parse_cells_block([{"id": 3, "dim": 0}])
    with pytest.raises(
        DegenerateInputError, match="^the dim of cell 'x' must be an integer, got True$"
    ):
        parse_cells_block([{"id": "x", "dim": True}])


# ---------------------------------------------------------------------------
# whole problems


def test_traced_problem_roundtrip_doubling():
    p = fx.doubling_problem()
    parsed = reparse(traced_problem_to_json(p))
    q = parsed.traced()
    assert q.spec == p.spec
    assert q.spec.level == 1
    assert q.normal == p.normal
    assert q.non_characteristic and not q.complex_model
    assert parsed.ell is None and parsed.phi is None


def test_problem_roundtrip_with_all_blocks():
    base = fx.reflection_problem()
    space = base.spec.base
    support = CellularSubset.of(space, {frozenset({"v0"}), frozenset({"v3"})})
    traces = {frozenset({"v0"}): g(3), frozenset({"v3"}): g("1/2")}
    ell = VertexFunctional.of(space, {f"v{i}": Fraction(i, 2) for i in range(6)})
    phi = ConstructibleFunction.of(space, {frozenset({"v0", "v1"}): g("2/3")})
    data = problem_to_json(
        space,
        spec=base.spec,
        phi=phi,
        support=support,
        traces=traces,
        normal=base.normal,
        ell=ell,
    )
    parsed = reparse(data)
    assert parsed.space == space
    assert parsed.spec == base.spec
    assert parsed.phi == phi
    assert parsed.support == support
    assert parsed.traces == traces
    assert parsed.normal == base.normal
    assert parsed.ell.values == ell.values


def test_functional_read_back_equals_the_one_written():
    for space in (fx.hexagon(), subdivided_complex(fx.disk(), 1)[0]):
        ell = VertexFunctional.of(
            space, {v: Fraction(i, 3) for i, v in enumerate(space.vertices)}
        )
        assert loads(dumps(problem_to_json(space, ell=ell))).ell == ell
        assert ell != ell.negated() and ell != ell.values


def test_push_map_roundtrip():
    push = fx.square_projection()
    phi = ConstructibleFunction.indicator(push.source)
    data = problem_to_json(push.source, push_map=push, phi=phi)
    assert isinstance(data["map"]["vertex_map"], dict)
    parsed = reparse(data)
    assert parsed.push_map == push
    assert parsed.spec is None
    assert parsed.phi == phi


def test_cellspace_problem_roundtrip():
    ex = fx.cp1_cellspace()
    phi = ConstructibleFunction.of(ex, {"pt": 1, "cell2": "3/2"})
    support = CellularSubset.of(ex, {"pt"})
    parsed = reparse(problem_to_json(ex, phi=phi, support=support))
    assert parsed.space == ex
    assert parsed.phi == phi
    assert parsed.support == support


def test_integer_vertices_roundtrip():
    space = fx.sphere2()
    spec = SelfMapSpec.identity(space)
    data = problem_to_json(space, spec=spec)
    # integer vertices force the pair-list encoding
    assert isinstance(data["map"]["vertex_map"], list)
    parsed = reparse(data)
    assert parsed.traced().spec == spec


def test_vertex_map_object_form_with_integer_keys():
    space = fx.sphere2()
    data = problem_to_json(space)
    data["map"] = {"vertex_map": {str(v): v for v in space.vertices}}
    parsed = parse_problem(json.loads(dumps(data)))
    assert parsed.spec == SelfMapSpec.identity(space)


HUGE_REFUSALS = {  # a value parse_problem is given directly, not through JSON
    "ell name": (lambda d: d.update(ell=[[10**5000, "1"]]),
                 "unknown vertex an integer of 16610 bits in ell"),
    "map target": (
        lambda d: d.update(map={"vertex_map": {"a": 10**5000, "b": "b"}}),
        "unknown target vertex an integer of 16610 bits in vertex_map",
    ),
    "schema": (lambda d: d.update(schema=10**5000),
               "unsupported schema an integer of 16610 bits; expected 'lefscalc/1'"),
    "vertex": (lambda d: d["complex"].update(vertices=[{"x": 10**5000}]),
               "invalid vertex a dict holding an integer too large to print"),
}


@pytest.mark.parametrize("name", sorted(HUGE_REFUSALS))
def test_an_integer_too_large_to_print_is_refused_by_its_size(name):
    data = minimal()
    edit, text = HUGE_REFUSALS[name]
    edit(data)
    with pytest.raises(ParseError) as caught:
        parse_problem(data)
    assert str(caught.value) == text


@pytest.mark.parametrize(
    "key", ["+7", " 7", "7 ", "7_0", pytest.param("9" * 5000, id="5000 digits")]
)
def test_an_object_key_names_an_int_vertex_only_in_decimal(key):
    # the one decimal-key reader NormalData.of's component indices go through
    data = {"schema": SCHEMA, "complex": {"vertices": [7], "simplices": [[7]]}}
    data["ell"] = {"07": "1"}
    assert parse_problem(data).ell.values == {7: 1}
    data["ell"] = {key: "1"}
    with pytest.raises(ParseError) as caught:
        parse_problem(data)
    assert str(caught.value) == f"unknown vertex {key!r} in ell"


def test_dumps_is_deterministic():
    p = fx.doubling_problem()
    a = dumps(traced_problem_to_json(p))
    b = dumps(traced_problem_to_json(fx.doubling_problem()))
    assert a == b


# ---------------------------------------------------------------------------
# rejection paths


def minimal():
    return {
        "schema": SCHEMA,
        "complex": {"vertices": ["a", "b"], "simplices": [["a"], ["b"], ["a", "b"]]},
    }


def test_rejects_bad_json_text():
    with pytest.raises(ParseError):
        loads("{not json")


def test_rejects_non_object():
    with pytest.raises(ParseError):
        parse_problem([1, 2, 3])


def test_rejects_bad_schema():
    data = minimal()
    data["schema"] = "lefscalc/0"
    with pytest.raises(ParseError):
        parse_problem(data)
    del data["schema"]
    with pytest.raises(ParseError):
        parse_problem(data)


def test_rejects_unknown_top_key():
    data = minimal()
    data["surprise"] = 1
    with pytest.raises(ParseError):
        parse_problem(data)


def test_requires_exactly_one_space_block():
    data = minimal()
    data["cells"] = [{"id": "x", "dim": 0}]
    with pytest.raises(ParseError):
        parse_problem(data)
    with pytest.raises(ParseError):
        parse_problem({"schema": SCHEMA})


def test_map_block_rejections():
    data = minimal()
    data["map"] = {"vertex_map": {"a": "a", "b": "b"}, "junk": 1}
    with pytest.raises(ParseError):
        parse_problem(data)
    data["map"] = {}
    with pytest.raises(ParseError):
        parse_problem(data)
    data["map"] = {"vertex_map": {"a": "a", "b": "b"}, "subdivision_level": -1}
    with pytest.raises(
        DegenerateInputError, match="^subdivision level must be at least 0, got -1$"
    ):
        parse_problem(data)
    data["map"] = {"vertex_map": {"a": "a", "b": "b"}, "subdivision_level": True}
    with pytest.raises(
        DegenerateInputError, match="^subdivision level must be an integer, got True$"
    ):
        parse_problem(data)
    data["map"] = {"vertex_map": {"a": "a", "b": "b"}, "complex_model": "yes"}
    with pytest.raises(ParseError):
        parse_problem(data)
    data["map"] = {
        "vertex_map": {"a": "a", "b": "b"},
        "subdivision_level": 1,
        "target": minimal()["complex"],
    }
    with pytest.raises(ParseError):
        parse_problem(data)


def test_map_needs_simplicial_space():
    data = {
        "schema": SCHEMA,
        "cells": [{"id": "x", "dim": 0}],
        "map": {"vertex_map": {}},
    }
    with pytest.raises(ParseError):
        parse_problem(data)


def test_vertex_map_rejections():
    data = minimal()
    data["map"] = {"vertex_map": {"a": "a"}}
    with pytest.raises(ParseError, match="misses"):
        parse_problem(data)
    data["map"] = {"vertex_map": {"a": "a", "b": "b", "z": "a"}}
    with pytest.raises(ParseError, match="unknown source"):
        parse_problem(data)
    data["map"] = {"vertex_map": {"a": "a", "b": "b", "7": "a"}}
    with pytest.raises(ParseError, match="unknown source"):
        parse_problem(data)
    data["map"] = {"vertex_map": {"a": "a", "b": "z"}}
    with pytest.raises(ParseError, match="unknown target"):
        parse_problem(data)
    data["map"] = {"vertex_map": [["a", "a", "a"]]}
    with pytest.raises(ParseError):
        parse_problem(data)
    data["map"] = {"vertex_map": "a->a"}
    with pytest.raises(ParseError):
        parse_problem(data)


def test_values_rejections():
    data = minimal()
    data["values"] = {"a": 1}
    with pytest.raises(ParseError):
        parse_problem(data)
    data["values"] = [[["a"], 1, 2]]
    with pytest.raises(
        DegenerateInputError, match=re.escape("not a (key, value) pair: [['a'], 1, 2]")
    ):
        parse_problem(data)
    data["values"] = [[["z"], 1]]
    with pytest.raises(ParseError):
        parse_problem(data)
    data["values"] = [[["a"], 1.5]]
    with pytest.raises(DegenerateInputError, match="^not a rational: 1.5$"):
        parse_problem(data)
    data["values"] = [["a", 1]]  # not an array reference
    with pytest.raises(ParseError):
        parse_problem(data)


def test_support_and_traces_rejections():
    data = minimal()
    data["support"] = "everything"
    with pytest.raises(ParseError):
        parse_problem(data)
    data = minimal()
    data["support"] = [["z"]]
    with pytest.raises(
        DegenerateInputError, match=re.escape("""cells not in parent: ["('z',)"]""")
    ):
        parse_problem(data)
    data = minimal()
    data["traces"] = [[["a"], True]]
    with pytest.raises(DegenerateInputError, match="^not a rational: True$"):
        parse_problem(data)
    data["traces"] = {"a": 1}
    with pytest.raises(ParseError):
        parse_problem(data)


def test_normal_data_rejections():
    data = minimal()
    data["normal_data"] = {"zero": [[1]]}
    with pytest.raises(
        DegenerateInputError, match="^normal data names component 'zero', not an integer$"
    ):
        parse_problem(data)
    data["normal_data"] = {"0": [["1/x"]]}
    with pytest.raises(DegenerateInputError, match="^bad rational literal '1/x'$"):
        parse_problem(data)
    data["normal_data"] = {"0": [["1", "2"]]}
    with pytest.raises(DegenerateInputError):
        parse_problem(data)
    data["normal_data"] = [[0, [[1]]]]
    with pytest.raises(ParseError):
        parse_problem(data)


def test_ell_rejections():
    data = minimal()
    data["ell"] = {"a": "0"}
    with pytest.raises(
        DegenerateInputError, match=re.escape("functional undefined on vertices ['b']")
    ):
        parse_problem(data)
    data["ell"] = {"a": "0", "b": "1", "z": "2"}
    with pytest.raises(ParseError):
        parse_problem(data)
    data["ell"] = {"a": "0", "b": "1", "7": "2"}
    with pytest.raises(ParseError, match="unknown vertex '7' in ell"):
        parse_problem(data)
    data["ell"] = {"a": "0", "b": "oops"}
    with pytest.raises(DegenerateInputError, match="^bad rational literal 'oops'$"):
        parse_problem(data)
    data["ell"] = "increasing"
    with pytest.raises(
        DegenerateInputError,
        match=re.escape("not a table of (key, value) pairs: 'increasing'"),
    ):
        parse_problem(data)
    data = {"schema": SCHEMA, "cells": [{"id": "x", "dim": 0}], "ell": {}}
    with pytest.raises(ParseError):
        parse_problem(data)


def test_ell_accepted_forms():
    data = minimal()
    data["ell"] = {"a": "1/2", "b": 3}
    parsed = parse_problem(data)
    assert parsed.ell.values == {"a": Fraction(1, 2), "b": Fraction(3)}
    data["ell"] = [["a", "1/2"], ["b", "3"]]
    parsed = parse_problem(data)
    assert parsed.ell.values == {"a": Fraction(1, 2), "b": Fraction(3)}


def test_ell_pair_list_is_read_like_the_object():
    data = minimal()
    data["ell"] = [["a", "0"], ["b", "1"], ["z", "2"]]
    with pytest.raises(ParseError, match="unknown vertex 'z' in ell"):
        parse_problem(data)
    data["ell"] = [["a", "0"], ["b", "1"], ["a", "2"]]
    with pytest.raises(DegenerateInputError, match="^two heights for vertex 'a'$"):
        parse_problem(data)
    data["ell"] = [["a", "0"], ["b"]]
    with pytest.raises(
        DegenerateInputError, match=re.escape("not a (key, value) pair: ['b']")
    ):
        parse_problem(data)


# ---------------------------------------------------------------------------
# one checked reader per JSON shape


def triangle():
    return {
        "schema": SCHEMA,
        "complex": {
            "vertices": ["a", "b", "c"],
            "simplices": [["a"], ["b"], ["c"], ["a", "b"], ["a", "c"],
                          ["b", "c"], ["a", "b", "c"]],
        },
    }


# Strings and numbers where arrays belong; each was read as an array (or
# raised a TypeError) before every JSON array went through one reader.  io
# refuses an array of names it decodes; the library reader that owns a
# matrix, coordinates or a table refuses the rest.
NOT_ARRAYS = {
    "vertices": (lambda d: d["complex"].update(vertices="abc"),
                 ParseError, "complex.vertices must be an array"),
    "simplex": (lambda d: d["complex"]["simplices"].append("ab"),
                ParseError, "a simplex must be an array"),
    "coords": (lambda d: d["complex"].update(coords=5),
               ParseError, "complex.coords must be an array"),
    "coords object": (
        lambda d: d["complex"].update(coords={"a": ["0"], "b": ["1"], "c": ["2"]}),
        ParseError, "complex.coords must be an array",
    ),
    "coords row": (
        lambda d: d["complex"].update(coords=[["0", "0"], 5, ["0", "1"]]),
        DegenerateInputError, "not a row of coordinates: 5",
    ),
    "normal matrix": (lambda d: d.update(normal_data={"0": "5"}),
                      DegenerateInputError, "not a matrix: '5'"),
    "normal row": (lambda d: d.update(normal_data={"0": [["-1", "0"], "34"]}),
                   DegenerateInputError, "not a row of a matrix: '34'"),
    "support": (lambda d: d.update(support="ab"),
                ParseError, "support must be an array"),
    "cell reference": (lambda d: d.update(values=[["a", "1"]]),
                       ParseError, "a simplex reference must be an array"),
    "values pair": (lambda d: d.update(values=[[["a"], "1", "2"]]),
                    DegenerateInputError, "not a (key, value) pair: [['a'], '1', '2']"),
    "cells": (lambda d: d.update(cells="ab") or d.pop("complex"),
              ParseError, "cells must be an array"),
}


@pytest.mark.parametrize("name", sorted(NOT_ARRAYS))
def test_only_arrays_are_read_as_arrays(name):
    data = triangle()
    edit, error, text = NOT_ARRAYS[name]
    edit(data)
    with pytest.raises(error) as caught:
        parse_problem(data)
    assert type(caught.value) is error and str(caught.value) == text


def test_coords_and_normal_rows_are_read_alike():
    data = triangle()
    data["complex"]["coords"] = [["0", "0"], ["1", "0"], [0, "1/2"]]
    data["normal_data"] = {"0": [["0", "0"], ["1", "0"]]}
    parsed = parse_problem(data)
    assert parsed.space.coord_of("c") == (Fraction(0), Fraction(1, 2))
    assert parsed.normal.matrix_for(0).rows == ((0, 0), (1, 0))
    for rows in ([["1/0"]], [[1.5]], [[True]]):
        data["complex"]["coords"] = rows * 3
        with pytest.raises(DegenerateInputError):
            parse_problem(data)
        data["complex"].pop("coords")
        data["normal_data"] = {"0": rows}
        with pytest.raises(DegenerateInputError):
            parse_problem(data)


def test_vertex_map_refuses_a_source_named_twice():
    data = triangle()
    data["map"] = {"vertex_map": [["a", "a"], ["b", "b"], ["c", "c"], ["a", "b"]]}
    with pytest.raises(DegenerateInputError, match="^two images for vertex 'a'$"):
        parse_problem(data)
    data["map"] = {"vertex_map": [["a", "a"], ["b", "b"], ["z", "c"]]}
    with pytest.raises(ParseError, match="unknown source vertex 'z' in vertex_map"):
        parse_problem(data)
    data = {"schema": SCHEMA, "complex": {"vertices": [7, 8], "simplices": [[7], [8]]}}
    data["map"] = {"vertex_map": {"7": 8, "8": 7}}
    assert parse_problem(data).spec.vertex_map == {7: 8, 8: 7}
    data["map"] = {"vertex_map": {"7": 8, "8": 7, "07": 7}}
    with pytest.raises(DegenerateInputError, match="^two images for vertex 7$"):
        parse_problem(data)


@pytest.mark.parametrize(
    "source, refusal",
    [("a", "not nested 2 deep"), (["a"], "not nested 2 deep"),
     ([[]], "not nested 2 deep"), ([], "not nested 2 deep"),
     ({"a": 1}, "not nested 2 deep"), (7, "not nested 2 deep"),
     ([[["a"]]], "unknown source vertex"), ([["a"], ["a"]], "unknown source vertex")],
)
def test_vertex_map_source_nested_less_than_the_level_is_refused(source, refusal):
    # the one vertex of sd^2 of a point is [["a"]]
    data = {"schema": SCHEMA, "complex": {"vertices": ["a"], "simplices": [["a"]]}}
    data["map"] = {"subdivision_level": 2, "vertex_map": [[[["a"]], "a"]]}
    assert parse_problem(data).spec.vertex_map == {(("a",),): "a"}
    data["map"]["vertex_map"] = [[source, "a"]]
    with pytest.raises(ParseError, match=re.escape(refusal)):
        parse_problem(data)


def test_object_vertex_map_above_level_0_is_refused():
    data = triangle()
    data["map"] = {"subdivision_level": 1, "vertex_map": dict.fromkeys("abcdefg", "a")}
    with pytest.raises(ParseError, match="source vertex 'a' in vertex_map is not nested"):
        parse_problem(data)


def test_a_repeated_json_key_is_refused():
    text = dumps(triangle())
    assert loads(text).space.vertices == ("a", "b", "c")
    with pytest.raises(ParseError, match="key 'schema' repeated in a JSON object"):
        loads(text.replace('"schema"', '"schema": "lefscalc/1", "schema"'))
    with pytest.raises(ParseError, match="key 'vertices' repeated"):
        loads(text.replace('"vertices"', '"vertices": [], "vertices"'))


def test_the_first_repeated_key_is_named_in_the_order_keys_first_occur():
    with pytest.raises(ParseError, match="^key 'b' repeated in a JSON object$"):
        loads('{"b": 1, "a": 1, "a": 2, "b": 2}')


def test_a_repeated_key_in_a_large_object_is_found_in_linear_time():
    # one pass over the keys: a count per key made this take seconds
    pairs = ", ".join(f'"k{i}": 0' for i in range(50_000))
    text = f'{{"schema": "lefscalc/1", "x": {{{pairs}, "k49999": 1}}}}'
    start = time.perf_counter()
    with pytest.raises(ParseError) as caught:
        loads(text)
    assert time.perf_counter() - start < 1
    assert str(caught.value) == "key 'k49999' repeated in a JSON object"


def test_a_gaussian_value_with_a_stray_key_is_refused():
    data = triangle()
    data["values"] = [[["a"], {"re": "1", "zz": 2}]]
    with pytest.raises(DegenerateInputError, match="keys 're', 'im'"):
        parse_problem(data)


def test_a_level_past_the_vertex_map_is_refused_before_subdividing(monkeypatch):
    calls = []
    real = complexes._flag_subdivision
    monkeypatch.setattr(
        complexes, "_flag_subdivision", lambda *args: calls.append(1) or real(*args)
    )
    data = triangle()
    data["map"] = {"subdivision_level": 30, "vertex_map": {}}
    start = time.perf_counter()
    with pytest.raises(ParseError) as caught:
        parse_problem(data)
    assert time.perf_counter() - start < 0.3
    assert calls == []
    assert str(caught.value) == (
        "vertex_map misses sources: 0 entries for subdivision level 30, "
        "but sd^0 has 3 vertices"
    )
    # sd^1 of the triangle has 7 vertices: six entries fall short of them
    data["map"] = {"subdivision_level": 1, "vertex_map": [[[v], v] for v in "abcabc"]}
    with pytest.raises(ParseError, match="6 entries for subdivision level 1, but sd"
                       r"\^1 has 7 vertices"):
        parse_problem(data)
    assert calls == []


def test_traced_requires_map():
    parsed = parse_problem(minimal())
    with pytest.raises(ParseError):
        parsed.traced()


def test_spec_and_push_map_are_exclusive():
    push = fx.square_projection()
    with pytest.raises(ParseError):
        problem_to_json(
            push.source,
            spec=SelfMapSpec.identity(push.source),
            push_map=push,
        )


def test_vertex_map_to_json_forms():
    assert vertex_map_to_json({"a": "a"}, 0) == {"a": "a"}
    pairs = vertex_map_to_json({("a",): "a"}, 1)
    assert pairs == [[["a"], "a"]]


# ---------------------------------------------------------------------------
# report payloads


def sample_reports():
    return [
        Report("chi", chi=2),
        Report("integral", integral=g("5/2")),
        Report(
            "lefschetz",
            global_trace=g(-1),
            degree_traces=((0, g(1)), (1, g(2))),
        ),
        Report(
            "localization",
            global_trace=g(2),
            sum_of_local=g(2),
            equal=True,
            components=(
                {
                    "component": 0,
                    "cells": (("v0",),),
                    "normal_dim": 1,
                    "sign": 1,
                    "integral": g(1),
                    "signed_contribution": g(1),
                },
            ),
        ),
        Report(
            "cycle-table",
            component=0,
            regime="signed-non-characteristic",
            sign=-1,
            table=(("v0", g(-1)),),
            total=g(-1),
        ),
        Report("cc", table=(("a", g(1)), ("b", g(0))), total=g(1)),
        Report("index-check", index_sum=g(3), integral=g(3), equal=True),
        Report(
            "pushforward",
            values=((("p",), g(1)),),
            source_integral=g(1),
            target_integral=g(1),
            equal=True,
        ),
        Report(
            "flag-model",
            n=3,
            blocks=(2, 1),
            cell_count=6,
            chi=6,
            component_count=3,
        ),
        Report(
            "worked-example",
            components=(
                ("c0", "lines_in_plane", True, 0, g(2)),
                ("c1", "lines_with_axis", True, 0, g(2)),
                ("c2", "planes_with_axis", False, 1, g(1)),
            ),
            total=g(5),
            chi_of_divisor=5,
        ),
        Report(
            "verify",
            seed=0,
            checks=(("hopf-vs-homology", True, "40 cases"),),
            all_ok=True,
            digest="0" * 64,
        ),
    ]


def test_report_json_roundtrip():
    for report in sample_reports():
        data = json.loads(json.dumps(report.to_json()))
        assert parse_report(data) == report
        assert data["kind"] == report.kind


def test_report_text_mentions_every_field():
    for report in sample_reports():
        text = report.to_text()
        assert text.startswith("kind: ")
        for line in text.splitlines():
            assert ": " in line


def test_sample_reports_cover_every_kind():
    assert [r.kind for r in sample_reports()] == list(FIELDS)


def test_parse_report_rejections():
    with pytest.raises(ParseError, match="unknown report kind 'nope'"):
        parse_report({"kind": "nope"})
    with pytest.raises(ParseError, match="unknown report kind"):
        parse_report({"kind": ["chi"]})
    with pytest.raises(ParseError, match="with a kind"):
        parse_report({"chi": 2})
    with pytest.raises(ParseError, match="misses field 'chi'"):
        parse_report({"kind": "chi"})
    with pytest.raises(ParseError, match=r"unknown report fields \['extra'\]"):
        parse_report({"kind": "chi", "chi": 2, "extra": 1})
    with pytest.raises(ParseError, match="must be a JSON object"):
        parse_report([1])
    with pytest.raises(ParseError, match="not valid JSON"):
        parse_report("{")
    with pytest.raises(ParseError, match="invalid value"):
        parse_report({"kind": "integral", "integral": {"re": "x", "im": "0"}})


def test_report_constructor_checks_fields():
    with pytest.raises(TypeError):
        Report("nope", chi=2)
    with pytest.raises(TypeError):
        Report("chi")
    with pytest.raises(TypeError):
        Report("chi", chi=2, extra=1)
    with pytest.raises(TypeError):
        Report("index-check", index_sum=g(3), integral=g(3))


def test_report_fields_read_as_attributes_and_stay_fixed():
    report = Report("index-check", index_sum=g(3), integral=g(4), equal=False)
    assert (report.kind, report.index_sum, report.equal) == (
        "index-check", g(3), False
    )
    with pytest.raises(AttributeError):
        report.missing
    with pytest.raises(AttributeError):
        report.equal = True
    assert report == Report(
        "index-check", equal=False, integral=g(4), index_sum=g(3)
    )
    assert report != Report(
        "index-check", index_sum=g(3), integral=g(3), equal=False
    )
    assert Report("chi", chi=2) != Report("integral", integral=2)


def test_print_report_modes():
    report = Report("chi", chi=4)
    assert json.loads(print_report(report, as_json=True)) == report.to_json()
    assert "chi: 4" in print_report(report, as_json=False)
