"""Malformed arguments through the library's entry points.

Each name of `lefscalc._EXPORTS` that takes a subdivision level, a flag
size or block sizes, a component index or degree, a key-value table, a
family of simplices, a normal matrix, the fields of a cell, a permutation,
a coefficient list, a vertex or the fields of a traced problem is called
with drawn values of the wrong kind: bools, floats, digit strings, None,
nested lists and tuples, malformed pairs, repeated keys, ints past 64 bits
and unknown vertices.  Each call must return or raise a LefscalcError, and
nothing else.  A call that returns passes, so the pinned probes below also
check that a string is read as neither a simplex nor a family, nor a
matrix, coordinates, a vertex list or a coefficient list.  A permutation
call returns only on a permutation, a vertex call only on a vertex, a
traced problem is built only from fields its readers accept, and a bad
rational literal is refused by every library reader with
DegenerateInputError.  Report payloads are read as strictly as problem
files.

An object that is not of the kind expected (a complex, a simplicial map, a
self-map spec, a constructible function, a vertex functional or a traced
problem), such as None, is refused by `records.require`, naming the
function called and the kind's noun.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lefscalc as lc
from lefscalc import fixtures as fx
from lefscalc import io
from lefscalc.errors import (
    CellSpaceUnsupportedError,
    DegenerateInputError,
    LefscalcError,
    ParseError,
)
from lefscalc.flags import open_cell_complement
from lefscalc.reports import parse_report
from lefscalc.verify import random_complex, random_self_map

SPHERE = fx.sphere2()
CP1 = fx.cp1_cellspace()
REFLECTION = fx.reflection_problem()
HEXAGON = REFLECTION.spec.base
# odd vertices onto v0, even ones onto v3: no edge v0v3 in the hexagon
HEXAGON_FOLD = {f"v{i}": "v0" if i % 2 else "v3" for i in range(6)}
HEIGHTS = lc.VertexFunctional.of(HEXAGON, {f"v{i}": i for i in range(6)})
ONE = lc.ConstructibleFunction.indicator(SPHERE)
PATH = lc.SimplicialComplex.from_maximal([("a", "b"), ("b", "c")])
FLAG3 = lc.flag_cellspace(3)
HUGE = 10**5000
INTERVAL_HEIGHTS = lc.VertexFunctional.of(fx.interval_complex(), {"a": 0, "b": 1})

FUZZ = settings(
    max_examples=30, deadline=None, derandomize=True, report_multiple_bugs=False
)

SCALARS = st.one_of(
    st.booleans(),
    st.floats(),
    st.integers(-2, 2),
    st.none(),
    st.from_regex(r"-?[0-9]{1,2}", fullmatch=True),
    st.sampled_from(["", "zz", "1/2", "v0", "pt"]),
)
HASHABLE = st.recursive(SCALARS, lambda inner: st.tuples(inner, inner), max_leaves=4)
ODD = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner),
    max_leaves=5,
)
# vertices and cells of the spaces called on, and an unknown vertex
KNOWN = st.sampled_from(
    [1, 2, 4, "v0", "v3", (1,), (1, 2), (2, 1), "pt", "cell2", 0, "1", 9]
)
KEYS = st.one_of(KNOWN, ODD)
VALUES = st.one_of(st.sampled_from(["1", "-1/2", 3, 0, {"re": "1"}]), ODD)
MATRICES = st.one_of(st.sampled_from([[[-1]], [["2"]], [[1, 0], [0, 3]]]), ODD)
PERMUTATIONS = st.one_of(
    st.permutations([1, 2, 3]).map(tuple),
    st.permutations([True, 2, 3]),
    st.permutations([1, 2, 3.0]).map(tuple),
    st.lists(st.one_of(st.integers(0, 4), SCALARS), max_size=4),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    ODD,
)
SIMPLEX = st.one_of(
    st.lists(st.one_of(st.integers(1, 4), st.just("zz")), max_size=4),
    st.tuples(st.integers(1, 4)),
    ODD,
)


def tables(values=VALUES):
    """A dict, a list of pairs with malformed pairs in it, the same with a
    key given twice, or something that is no table at all."""
    malformed = st.lists(st.one_of(KEYS, values), max_size=3) | ODD
    pairs = st.lists(st.tuples(KEYS, values) | malformed, max_size=4)
    repeated = st.tuples(pairs, KEYS, values, values).map(
        lambda t: t[0] + [(t[1], t[2]), [t[1], t[3]]]
    )
    dicts = st.dictionaries(st.one_of(KNOWN, HASHABLE), values, max_size=4)
    return st.one_of(dicts, pairs, repeated, ODD)


def _identity_map(space, junk):
    """The identity vertex map of `space` with `junk` pairs added."""
    return [(v, v) for v in space.vertices] + junk


def _settles(call, *args):
    try:
        call(*args)
    except LefscalcError:
        pass


LEVEL_CALLS = {
    "subdivided_complex": lambda level: lc.subdivided_complex(SPHERE, level),
    "SelfMapSpec.build": lambda level: lc.SelfMapSpec.build(
        SPHERE, level, _identity_map(SPHERE, [])
    ),
}
FLAG_CALLS = {
    "flag_cellspace": lambda n, blocks: lc.flag_cellspace(n),
    "fixed_locus_cellspace": lc.fixed_locus_cellspace,
}
INDEX_CALLS = {
    "signed_local_contribution": lambda i: lc.signed_local_contribution(
        REFLECTION, i
    ),
    "local_contribution": lambda i: lc.local_contribution(REFLECTION, i),
    "lefschetz_cycle_table": lambda i: lc.lefschetz_cycle_table(
        REFLECTION, i, HEIGHTS
    ),
    "microlocal_index": lambda i: lc.microlocal_index(REFLECTION, i, HEIGHTS),
    "homology_trace": lambda k: lc.homology_trace(REFLECTION.spec, k),
}
TABLE_CALLS = {
    "SimplicialMap.build": lambda t: lc.SimplicialMap.build(SPHERE, SPHERE, t),
    "SelfMapSpec.build": lambda t: lc.SelfMapSpec.build(SPHERE, 0, t),
    "VertexFunctional.of": lambda t: lc.VertexFunctional.of(SPHERE, t),
    "ConstructibleFunction.of": lambda t: lc.ConstructibleFunction.of(SPHERE, t),
    "local_trace_function": lambda t: lc.local_trace_function(
        lc.TracedProblem(spec=REFLECTION.spec, traces=t)
    ),
}
FAMILY_CALLS = {
    "SimplicialComplex.build": lambda f: lc.SimplicialComplex.build([1, 2], f),
    "SimplicialComplex.from_simplices": lc.SimplicialComplex.from_simplices,
    "SimplicialComplex.from_maximal": lc.SimplicialComplex.from_maximal,
    "CellularSubset.of": lambda f: lc.CellularSubset.of(SPHERE, f),
    "induced_subcomplex": lambda f: lc.induced_subcomplex(SPHERE, f),
    "relative_betti": lambda f: lc.relative_betti(SPHERE, f),
    "restrict": lambda f: lc.restrict(ONE, f),
    "ConstructibleFunction.indicator": lambda f: (
        lc.ConstructibleFunction.indicator(SPHERE, f)
    ),
    "relative_lefschetz_number": lambda f: lc.relative_lefschetz_number(
        REFLECTION.spec, f
    ),
    "localization_report": lambda f: lc.localization_report(
        lc.TracedProblem(spec=REFLECTION.spec, support=f)
    ),
}


def test_every_fuzzed_name_is_exported():
    names = {
        *LEVEL_CALLS, *FLAG_CALLS, *INDEX_CALLS, *TABLE_CALLS, *FAMILY_CALLS,
        *VERTEX_CALLS,
    }
    assert {name.split(".")[0] for name in names} <= set(lc._EXPORTS)


@FUZZ
@given(
    name=st.sampled_from(sorted(LEVEL_CALLS)), level=st.one_of(st.integers(-3, 1), ODD)
)
@example(name="subdivided_complex", level=[1])
def test_a_level_is_an_int_that_is_not_a_bool(name, level):
    _settles(LEVEL_CALLS[name], level)


@FUZZ
@given(
    name=st.sampled_from(sorted(FLAG_CALLS)),
    n=st.one_of(st.integers(-1, 7), ODD),
    blocks=st.one_of(st.lists(st.one_of(st.integers(0, 3), SCALARS), max_size=3), ODD),
)
def test_flag_sizes_and_blocks_are_ints_that_are_not_bools(name, n, blocks):
    _settles(FLAG_CALLS[name], n, blocks)


@FUZZ
@given(
    name=st.sampled_from(sorted(INDEX_CALLS)), index=st.one_of(st.integers(-2, 3), ODD)
)
def test_component_indices_and_degrees_are_ints_that_are_not_bools(name, index):
    _settles(INDEX_CALLS[name], index)


@FUZZ
@given(name=st.sampled_from(sorted(TABLE_CALLS)), table=tables())
def test_a_table_is_read_by_one_reader(name, table):
    _settles(TABLE_CALLS[name], table)


@FUZZ
@given(junk=tables(), cell_table=tables(), normal=tables(MATRICES))
def test_whole_tables_with_junk_added(junk, cell_table, normal):
    """A complete vertex map or functional with junk pairs after it, values
    on the cells of a cell space, and normal data."""
    pairs = junk if isinstance(junk, list) else []
    _settles(lc.SelfMapSpec.build, SPHERE, 0, _identity_map(SPHERE, pairs))
    _settles(lc.VertexFunctional.of, SPHERE, _identity_map(SPHERE, pairs))
    _settles(lc.ConstructibleFunction.of, CP1, cell_table)
    _settles(lc.NormalData.of, normal)


@FUZZ
@given(matrix=MATRICES)
def test_a_matrix_is_read_row_by_row(matrix):
    _settles(lc.RationalMatrix.of, matrix)
    _settles(lc.NormalData.of, {0: matrix})


@FUZZ
@given(
    name=st.sampled_from(sorted(FAMILY_CALLS)),
    family=st.one_of(st.lists(SIMPLEX, max_size=4), ODD),
)
def test_a_family_is_read_simplex_by_simplex(name, family):
    _settles(FAMILY_CALLS[name], family)


@FUZZ
@given(
    ident=st.one_of(st.sampled_from(["pt", "cell2"]), ODD),
    dim=st.one_of(st.integers(-1, 2), ODD),
    component=st.one_of(st.sampled_from([None, "c0"]), ODD),
)
def test_a_cell_is_read_field_by_field(ident, dim, component):
    _settles(lc.CellSpace.build, [lc.Cell("pt", 0), lc.Cell(ident, dim, component)])


def _is_permutation(x) -> bool:
    return (
        isinstance(x, (tuple, list))
        and all(type(i) is int for i in x)
        and sorted(x) == list(range(1, len(x) + 1))
    )


# each call returns only on a permutation of 1..3
PERMUTATION_CALLS = {
    "bruhat_leq": lambda w: lc.bruhat_leq(w, (3, 2, 1)),
    "schubert_subset": lambda w: lc.schubert_subset(FLAG3, w),
    "open_cell_complement": lambda w: open_cell_complement(FLAG3, w),
}


@FUZZ
@given(name=st.sampled_from(sorted(PERMUTATION_CALLS)), perm=PERMUTATIONS)
def test_a_permutation_is_read_by_one_reader(name, perm):
    try:
        PERMUTATION_CALLS[name](perm)
    except LefscalcError:
        return
    assert _is_permutation(perm) and len(perm) == 3


@FUZZ
@given(coeffs=st.one_of(st.lists(st.one_of(st.integers(-2, 2), SCALARS), max_size=3), ODD))
def test_a_coefficient_list_is_read_by_one_reader(coeffs):
    try:
        p = lc.RationalPolynomial.of(coeffs)
    except LefscalcError:
        return
    assert isinstance(coeffs, (list, tuple))
    assert p.coeffs == tuple(map(lc.parse_rational, coeffs))[: len(p.coeffs)]


TRIANGLE = lc.SimplicialComplex.build([0, 1, 2], [[0], [1], [2], [0, 1], [1, 2], [0, 2]])
TRIANGLE_ONE = lc.ConstructibleFunction.indicator(TRIANGLE)
TRIANGLE_HEIGHTS = lc.VertexFunctional.of(TRIANGLE, {0: 0, 1: 1, 2: 2})
TRIANGLE_MAP = lc.SimplicialMap.build(TRIANGLE, TRIANGLE, {0: 0, 1: 1, 2: 2})
VERTICES = st.one_of(
    st.sampled_from([0, 1, 2, 2**64, -(2**64) - 1, 10**30, "zz", (1,), [1], 1.0]),
    st.integers(-2, 3),
    HASHABLE,
    ODD,
)
# each call returns only on a vertex of TRIANGLE, and the table of
# VertexFunctional.of only when its drawn key is vertex 0
VERTEX_CALLS = {
    "star": lambda v: lc.star(TRIANGLE, v),
    "link": lambda v: lc.link(TRIANGLE, v),
    "morse_multiplicity": lambda v: lc.morse_multiplicity(
        TRIANGLE_ONE, TRIANGLE_HEIGHTS, v
    ),
    "VertexFunctional.of": lambda v: lc.VertexFunctional.of(
        TRIANGLE, [(v, 5), (1, 1), (2, 2)]
    ),
}


@FUZZ
@given(name=st.sampled_from(sorted(VERTEX_CALLS)), vertex=VERTICES)
@example(name="star", vertex=True)
@example(name="link", vertex=1.0)
@example(name="morse_multiplicity", vertex=True)
@example(name="VertexFunctional.of", vertex=False)
def test_a_vertex_is_read_by_one_reader(name, vertex):
    try:
        VERTEX_CALLS[name](vertex)
    except LefscalcError:
        return
    assert type(vertex) is int and vertex in TRIANGLE.vertices


# the fields of a traced problem on the reflected hexagon: the open star of
# v0, a trace value there, and both normal matrices, each in the typed form
# the problem keeps and in the other forms its readers accept
STAR_V0 = [("v0",), ("v0", "v1"), ("v5", "v0")]
SUPPORTS = {
    "tuples": STAR_V0,
    "frozensets": set(map(frozenset, STAR_V0)),
}
TRACES = {"dict": {("v0",): 3}, "pairs": [(["v0"], "3")]}
NORMALS = {
    "dict": {0: [[-1]], 1: [[-1]]},
    "pairs": [(0, [["-1"]]), ("1", lc.RationalMatrix.of([[-1]]))],
}
TYPED = lc.TracedProblem(
    spec=REFLECTION.spec,
    support=lc.CellularSubset.of(HEXAGON, STAR_V0),
    traces={frozenset(["v0"]): lc.GaussianRational.of(3)},
    normal=REFLECTION.normal,
)


@pytest.mark.parametrize("normal", sorted(NORMALS))
@pytest.mark.parametrize("traces", sorted(TRACES))
@pytest.mark.parametrize("support", sorted(SUPPORTS))
def test_every_accepted_form_of_a_traced_problem_reads_the_same(support, traces, normal):
    """The same report as the typed fields give, and the same problem file,
    which reads back to that report."""
    p = lc.TracedProblem(
        spec=REFLECTION.spec, support=SUPPORTS[support], traces=TRACES[traces],
        normal=NORMALS[normal],
    )
    report = lc.localization_report(TYPED)
    assert lc.localization_report(p) == report
    data = io.traced_problem_to_json(p)
    assert data == io.traced_problem_to_json(TYPED)
    assert lc.localization_report(io.loads(io.dumps(data)).traced()) == report


FLAGS = st.one_of(st.booleans(), st.integers(0, 1), SCALARS, ODD)


@FUZZ
@given(
    support=st.one_of(st.none(), st.lists(SIMPLEX, max_size=4), ODD),
    traces=st.one_of(st.none(), tables()),
    normal=st.one_of(st.none(), tables(MATRICES)),
    complex_model=FLAGS,
    non_characteristic=FLAGS,
)
@example(
    support=None, traces=None, normal={0: [[-1]], 1: [[-1]]}, complex_model=False,
    non_characteristic=1,
)
def test_a_traced_problem_reads_its_fields_when_it_is_built(
    support, traces, normal, complex_model, non_characteristic
):
    """Built only from fields its readers accept, and kept in their typed
    forms; the report then returns or refuses."""
    try:
        p = lc.TracedProblem(
            spec=REFLECTION.spec, support=support, traces=traces, normal=normal,
            complex_model=complex_model, non_characteristic=non_characteristic,
        )
    except LefscalcError:
        return
    assert p.support is None or isinstance(p.support, lc.CellularSubset)
    assert p.traces is None or all(
        isinstance(value, lc.GaussianRational) for value in p.traces.values()
    )
    assert p.normal is None or isinstance(p.normal, lc.NormalData)
    assert type(p.complex_model) is bool and type(p.non_characteristic) is bool
    _settles(lc.localization_report, p)


# a report payload read as strictly as a problem file
PAYLOADS = {
    "repeated key": (
        '{"kind": "chi", "chi": 1, "chi": 2}', "key 'chi' repeated in a JSON object"
    ),
    "5000-digit integer": (
        '{"kind": "chi", "chi": ' + "7" * 5000 + "}",
        "not valid JSON: Exceeds the limit (4300 digits) for integer string conversion",
    ),
    "100000-deep array": (
        "[" * 100_000 + "]" * 100_000, "not valid JSON: maximum recursion depth exceeded"
    ),
}


@pytest.mark.parametrize("payload", sorted(PAYLOADS))
def test_a_report_payload_is_read_by_the_strict_json_reader(payload):
    text, refusal = PAYLOADS[payload]
    with pytest.raises(ParseError) as caught:
        parse_report(text)
    assert str(caught.value).startswith(refusal)
    with pytest.raises(ParseError) as as_problem:
        io.loads(text)
    assert str(as_problem.value) == str(caught.value)


POINT = lc.SimplicialComplex.from_maximal([("p",)])
# every library reader of a rational literal, each given one bad literal
LITERAL_READERS = {
    "parse_rational": lc.parse_rational,
    "GaussianRational.of": lc.GaussianRational.of,
    "GaussianRational.of, a part": lambda x: lc.GaussianRational.of({"re": 1, "im": x}),
    "RationalMatrix.of": lambda x: lc.RationalMatrix.of([[x]]),
    "NormalData.of": lambda x: lc.NormalData.of({0: [[1, 0], [0, x]]}),
    "VertexFunctional.of": lambda x: lc.VertexFunctional.of(POINT, {"p": x}),
    "ConstructibleFunction.of": lambda x: lc.ConstructibleFunction.of(POINT, {("p",): x}),
}
BAD_LITERALS = {
    "bool": True, "float": 1.5, "none": None, "list": [1], "word": "x",
    "zero-denominator": "1/0", "empty": "", "exponent": "1e1001", "long": "7" * 1001,
}


@pytest.mark.parametrize("name", sorted(LITERAL_READERS))
@pytest.mark.parametrize("kind", sorted(BAD_LITERALS))
def test_a_bad_rational_literal_is_refused_alike_by_every_reader(name, kind):
    """DegenerateInputError with parse_rational's text, never the ParseError
    of a file reader."""
    literal = BAD_LITERALS[kind]
    with pytest.raises(DegenerateInputError) as direct:
        lc.parse_rational(literal)
    with pytest.raises(LefscalcError) as caught:
        LITERAL_READERS[name](literal)
    assert type(caught.value) is DegenerateInputError
    assert str(caught.value) == str(direct.value)


# each refusal's text, and a call that raised a raw TypeError, or read its
# argument as something else, before the readers
PROBES = {
    "subdivision level must be an integer, got '2'": lambda: lc.subdivided_complex(
        SPHERE, "2"
    ),
    "subdivision level must be an integer, got True": lambda: lc.subdivided_complex(
        SPHERE, True
    ),
    "subdivision level must be an integer, got [0]": lambda: lc.SelfMapSpec.build(
        SPHERE, [0], {}
    ),
    "subdivision level must be at least 0, got an integer of 16610 bits": lambda: (
        lc.subdivided_complex(SPHERE, -(10**5000))
    ),
    "flag size n must be an integer, got '3'": lambda: lc.flag_cellspace("3"),
    "flag size n must be in 1..6, got 7": lambda: lc.flag_cellspace(7),
    "block sizes must be a sequence, got '12'": lambda: lc.fixed_locus_cellspace(
        3, "12"
    ),
    "block size must be an integer, got True": lambda: lc.fixed_locus_cellspace(
        3, (1, True, 1)
    ),
    "block size must be at least 1, got 0": lambda: lc.fixed_locus_cellspace(3, (3, 0)),
    "component index must be an integer, got '0'": lambda: (
        lc.signed_local_contribution(REFLECTION, "0")
    ),
    "component index must be an integer, got True": lambda: (
        lc.signed_local_contribution(REFLECTION, True)
    ),
    "degree must be an integer, got True": lambda: lc.homology_trace(
        REFLECTION.spec, True
    ),
    "not a (key, value) pair: 1": lambda: lc.NormalData.of([1]),
    "not a table of (key, value) pairs: 5": lambda: lc.NormalData.of(5),
    "two images for vertex 1": lambda: lc.SimplicialMap.build(
        SPHERE, SPHERE, _identity_map(SPHERE, [(1, 2)])
    ),
    "two heights for vertex 1": lambda: lc.VertexFunctional.of(
        SPHERE, [(1, 0), (1, 5), ([2], 1)]
    ),
    "unhashable key [2]": lambda: lc.SimplicialMap.build(SPHERE, SPHERE, [([2], 1)]),
    "invalid vertex [2]: vertices are strings, ints of at most 64 bits and tuples "
    "of them": lambda: lc.VertexFunctional.of(SPHERE, [([2], 1)]),
    "invalid vertex 1.5: vertices are strings, ints of at most 64 bits and tuples "
    "of them": lambda: lc.VertexFunctional.of(HEXAGON, {**HEIGHTS.values, 1.5: 9}),
    "invalid vertex True: vertices are strings, ints of at most 64 bits and tuples "
    "of them": lambda: lc.VertexFunctional.of(SPHERE, {True: 0, 2: 1, 3: 2, 4: 3}),
    "unknown vertex 'zz'": lambda: lc.VertexFunctional.of(
        HEXAGON, {**HEIGHTS.values, "zz": 9}
    ),
    "bad rational literal 'x'": lambda: lc.NormalData.of({0: [["x"]]}),
    "not a permutation: (1, 1, 1)": lambda: lc.bruhat_leq((1, 1, 1), (3, 2, 1)),
    "not a permutation: ('a', 'b')": lambda: lc.bruhat_leq(("a", "b"), (1, 2)),
    "not a permutation: (2, 2)": lambda: lc.bruhat_leq((1, 2), (2, 2)),
    "permutations of different sizes": lambda: lc.bruhat_leq((1, 2), (1, 2, 3)),
    "not a permutation: 5": lambda: lc.schubert_subset(FLAG3, 5),
    "not a permutation: (True, 3, 2)": lambda: lc.schubert_subset(FLAG3, (True, 3, 2)),
    "(1, 2) is not a permutation of the model": lambda: lc.schubert_subset(
        FLAG3, [1, 2]
    ),
    "not a permutation: [4, 3, 2]": lambda: open_cell_complement(FLAG3, [4, 3, 2]),
    "(2, 1) is not a permutation of the model": lambda: open_cell_complement(
        FLAG3, (2, 1)
    ),
    "not a coefficient list: '12'": lambda: lc.RationalPolynomial.of("12"),
    "not a coefficient list: 12": lambda: lc.RationalPolynomial.of(12),
    "two values for cell (1, 2)": lambda: lc.ConstructibleFunction.of(
        SPHERE, {(1, 2): 1, (2, 1): 2}
    ),
    "two trace values for cell ('v0',)": lambda: lc.local_trace_function(
        lc.TracedProblem(spec=REFLECTION.spec, traces=[(("v0",), 2), (["v0"], 3)])
    ),
    "two normal matrices for component 0": lambda: lc.NormalData.of(
        [(0, [[1]]), ("0", [[2]])]
    ),
    "not a family of cells: 5": lambda: lc.CellularSubset.of(SPHERE, 5),
    "complex_model must be a boolean, got 'no'": lambda: lc.TracedProblem(
        REFLECTION.spec, complex_model="no"
    ),
    "complex_model must be a boolean, got 0": lambda: lc.TracedProblem(
        REFLECTION.spec, complex_model=0
    ),
    "non_characteristic must be a boolean, got 1": lambda: lc.TracedProblem(
        REFLECTION.spec, non_characteristic=1
    ),
    "not a family of cells: 'v0'": lambda: lc.TracedProblem(
        REFLECTION.spec, support="v0"
    ),
    "cells not in parent: [\"('zz',)\"]": lambda: lc.TracedProblem(
        REFLECTION.spec, support=[("zz",)]
    ),
    "not a table of (key, value) pairs: 'v0'": lambda: lc.TracedProblem(
        REFLECTION.spec, traces="v0"
    ),
    "bad rational literal 'y'": lambda: lc.TracedProblem(
        REFLECTION.spec, traces={("v0",): "y"}
    ),
    "not a matrix: 'x'": lambda: lc.TracedProblem(REFLECTION.spec, normal={0: "x"}),
    "normal matrix for component 1 is not square": lambda: lc.TracedProblem(
        REFLECTION.spec, normal=[(0, [[-1]]), (1, [[1, 2]])]
    ),
    "not a family of cells: None": lambda: lc.SimplicialComplex.from_maximal(None),
}


@pytest.mark.parametrize("text", sorted(PROBES))
def test_each_probe_is_refused_with_its_text(text):
    with pytest.raises(DegenerateInputError) as caught:
        PROBES[text]()
    assert str(caught.value) == text


# a call (by its text) and its refusal: strings, each read before as the
# simplex, family, vertex list or rows of its characters; matrices and cell
# fields, which had no reader; and ints of 16 610 bits, which Python will
# not print, so a refusal prints them by their size
NAMED_PROBES = {
    "PATH.has('ab')": (lambda: PATH.has("ab"), "not a simplex: 'ab'"),
    "from_maximal(['ab', 'bc'])": (
        lambda: lc.SimplicialComplex.from_maximal(["ab", "bc"]), "not a simplex: 'ab'"
    ),
    "ConstructibleFunction.of(PATH, [('ab', 1)])": (
        lambda: lc.ConstructibleFunction.of(PATH, [("ab", 1)]), "not a simplex: 'ab'"
    ),
    "CellularSubset.of(PATH, 'ab')": (
        lambda: lc.CellularSubset.of(PATH, "ab"), "not a family of cells: 'ab'"
    ),
    "SimplicialComplex.build('abc', ...)": (
        lambda: lc.SimplicialComplex.build("abc", [("a",)]), "not a vertex list: 'abc'"
    ),
    "SimplicialComplex.build(['a', 'b'], ..., ['00', '11'])": (
        lambda: lc.SimplicialComplex.build(["a", "b"], [["a"], ["b"]], ["00", "11"]),
        "not a row of coordinates: '00'",
    ),
    "NormalData.of({0: '5'})": (lambda: lc.NormalData.of({0: "5"}), "not a matrix: '5'"),
    "NormalData.of({0: 5})": (lambda: lc.NormalData.of({0: 5}), "not a matrix: 5"),
    "RationalMatrix.of([[1, 2], '34'])": (
        lambda: lc.RationalMatrix.of([[1, 2], "34"]), "not a row of a matrix: '34'"
    ),
    "CellSpace.build([Cell('a', '1')])": (
        lambda: lc.CellSpace.build([lc.Cell("a", "1")]),
        "the dim of cell 'a' must be an integer, got '1'",
    ),
    "CellSpace.build([Cell('a', True)])": (
        lambda: lc.CellSpace.build([lc.Cell("a", True)]),
        "the dim of cell 'a' must be an integer, got True",
    ),
    "CellularSubset.of(CP1, [5])": (
        lambda: lc.CellularSubset.of(CP1, [5]), "not a cell id: 5"
    ),
    "NormalData.of([HUGE])": (
        lambda: lc.NormalData.of([HUGE]),
        "not a (key, value) pair: an integer of 16610 bits",
    ),
    "SimplicialComplex.cell_key(HUGE)": (
        lambda: lc.SimplicialComplex.cell_key(HUGE),
        "not a simplex: an integer of 16610 bits",
    ),
    "read_cells(HUGE, SPHERE.cell_key)": (
        lambda: lc.complexes.read_cells(HUGE, SPHERE.cell_key),
        "not a family of cells: an integer of 16610 bits",
    ),
    "CellularSubset.of(SPHERE, [HUGE])": (
        lambda: lc.CellularSubset.of(SPHERE, [HUGE]),
        "not a simplex: an integer of 16610 bits",
    ),
    "SPHERE.vertex_index(HUGE)": (
        lambda: SPHERE.vertex_index(HUGE), "unknown vertex an integer of 16610 bits"
    ),
    "SimplicialComplex.build([HUGE], [])": (
        lambda: lc.SimplicialComplex.build([HUGE], []),
        "invalid vertex an integer of 16610 bits: vertices are strings, ints of at "
        "most 64 bits and tuples of them",
    ),
    "NormalData.of({'9' * 5000: [[1]]})": (
        lambda: lc.NormalData.of({"9" * 5000: [[1]]}),
        f"normal data names component {'9' * 5000!r}, not an integer",
    ),
    "SimplicialComplex.build([[1]], [])": (
        lambda: lc.SimplicialComplex.build([[1]], []),
        "invalid vertex [1]: vertices are strings, ints of at most 64 bits and "
        "tuples of them",
    ),
    "CellSpace.build(5)": (lambda: lc.CellSpace.build(5), "not a family of cells: 5"),
    "star(TRIANGLE, True)": (
        lambda: lc.star(TRIANGLE, True),
        "invalid vertex True: vertices are strings, ints of at most 64 bits and "
        "tuples of them",
    ),
    "link(TRIANGLE, 1.0)": (
        lambda: lc.link(TRIANGLE, 1.0),
        "invalid vertex 1.0: vertices are strings, ints of at most 64 bits and "
        "tuples of them",
    ),
    "morse_multiplicity(TRIANGLE_ONE, TRIANGLE_HEIGHTS, True)": (
        lambda: lc.morse_multiplicity(TRIANGLE_ONE, TRIANGLE_HEIGHTS, True),
        "invalid vertex True: vertices are strings, ints of at most 64 bits and "
        "tuples of them",
    ),
    "SimplicialMap.build(TRIANGLE, TRIANGLE, an image True)": (
        lambda: lc.SimplicialMap.build(TRIANGLE, TRIANGLE, {0: 0, 1: True, 2: 2}),
        "invalid vertex True: vertices are strings, ints of at most 64 bits and "
        "tuples of them",
    ),
    "SelfMapSpec.build(TRIANGLE, 0, an image 1.0)": (
        lambda: lc.SelfMapSpec.build(TRIANGLE, 0, {0: 0, 1: 1.0, 2: 2}),
        "invalid vertex 1.0: vertices are strings, ints of at most 64 bits and "
        "tuples of them",
    ),
    "star(TRIANGLE, 2**64)": (
        lambda: lc.star(TRIANGLE, 2**64),
        "invalid vertex an integer of 65 bits: vertices are strings, ints of at most "
        "64 bits and tuples of them",
    ),
    "lefschetz_cycle_table(doubling, 0, heights on the interval)": (
        lambda: lc.lefschetz_cycle_table(fx.doubling_problem(), 0, INTERVAL_HEIGHTS),
        "functional undefined on vertices ['v0']",
    ),
    "microlocal_index(doubling, 0, heights on the interval)": (
        lambda: lc.microlocal_index(fx.doubling_problem(), 0, INTERVAL_HEIGHTS),
        "functional undefined on vertices ['v0']",
    ),
    "CellSpace.build([5])": (lambda: lc.CellSpace.build([5]), "not a cell: 5"),
    # no space at all, which once read as a cell space
    "subdivided_complex(None, 0)": (
        lambda: lc.subdivided_complex(None, 0),
        "subdivided_complex needs a simplicial complex; got NoneType",
    ),
    "star(5, 'a')": (
        lambda: lc.star(5, "a"), "star needs a simplicial complex; got int"
    ),
    # no self-map spec, or no traced problem: each raised a raw AttributeError
    "TracedProblem(spec=5)": (
        lambda: lc.TracedProblem(spec=5), "TracedProblem needs a self-map spec; got int"
    ),
    "lefschetz_number(5)": (
        lambda: lc.lefschetz_number(5), "lefschetz_number needs a self-map spec; got int"
    ),
    "hopf_trace(HEXAGON)": (
        lambda: lc.hopf_trace(HEXAGON),
        "hopf_trace needs a self-map spec; got SimplicialComplex",
    ),
    "homology_trace(None, 0)": (
        lambda: lc.homology_trace(None, 0),
        "homology_trace needs a self-map spec; got NoneType",
    ),
    "homology_traces('spec')": (
        lambda: lc.homology_traces("spec"),
        "homology_traces needs a self-map spec; got str",
    ),
    "self_map_endomorphism(5)": (
        lambda: lc.self_map_endomorphism(5),
        "self_map_endomorphism needs a self-map spec; got int",
    ),
    "relative_lefschetz_number(5, [])": (
        lambda: lc.relative_lefschetz_number(5, []),
        "relative_lefschetz_number needs a self-map spec; got int",
    ),
    "fixed_subcomplex(5)": (
        lambda: lc.fixed_subcomplex(5), "fixed_subcomplex needs a self-map spec; got int"
    ),
    "fixed_components(REFLECTION)": (
        lambda: lc.fixed_components(REFLECTION),
        "fixed_components needs a self-map spec; got TracedProblem",
    ),
    "pushforward_spec(5, ONE)": (
        lambda: lc.pushforward_spec(5, ONE),
        "pushforward_spec needs a self-map spec; got int",
    ),
    "refine(5)": (lambda: lc.refine(5), "refine needs a self-map spec; got int"),
    "localization_report(None)": (
        lambda: lc.localization_report(None),
        "localization_report needs a traced problem; got NoneType",
    ),
    "local_trace_function(REFLECTION.spec)": (
        lambda: lc.local_trace_function(REFLECTION.spec),
        "local_trace_function needs a traced problem; got SelfMapSpec",
    ),
    "local_contribution(5, 0)": (
        lambda: lc.local_contribution(5, 0),
        "local_contribution needs a traced problem; got int",
    ),
    "hyperbolicity_report(None)": (
        lambda: lc.hyperbolicity_report(None),
        "hyperbolicity_report needs a traced problem; got NoneType",
    ),
    "signed_local_contribution(None, 0)": (
        lambda: lc.signed_local_contribution(None, 0),
        "component_sign needs a traced problem; got NoneType",
    ),
    "lefschetz_cycle_table(None, 0, HEIGHTS)": (
        lambda: lc.lefschetz_cycle_table(None, 0, HEIGHTS),
        "component_sign needs a traced problem; got NoneType",
    ),
    "microlocal_index(None, 0, HEIGHTS)": (
        lambda: lc.microlocal_index(None, 0, HEIGHTS),
        "component_sign needs a traced problem; got NoneType",
    ),
    # no space, map, constructible function or vertex functional: each
    # raised a raw AttributeError
    "SelfMapSpec.identity(5)": (
        lambda: lc.SelfMapSpec.identity(5),
        "SelfMapSpec.identity needs a simplicial complex; got int",
    ),
    "SimplicialMap.build(5, TRIANGLE, {})": (
        lambda: lc.SimplicialMap.build(5, TRIANGLE, {}),
        "SimplicialMap.build needs a simplicial complex; got int",
    ),
    "SimplicialMap.build(TRIANGLE, None, {})": (
        lambda: lc.SimplicialMap.build(TRIANGLE, None, {}),
        "SimplicialMap.build needs a simplicial complex; got NoneType",
    ),
    "VertexFunctional.of(5, {})": (
        lambda: lc.VertexFunctional.of(5, {}),
        "VertexFunctional.of needs a simplicial complex; got int",
    ),
    "compose(5, 5)": (
        lambda: lc.compose(5, 5), "compose needs a simplicial map; got int"
    ),
    "compose(TRIANGLE_MAP, None)": (
        lambda: lc.compose(TRIANGLE_MAP, None),
        "compose needs a simplicial map; got NoneType",
    ),
    "pushforward(5, ONE)": (
        lambda: lc.pushforward(5, ONE), "pushforward needs a simplicial map; got int"
    ),
    "pullback(None, ONE)": (
        lambda: lc.pullback(None, ONE), "pullback needs a simplicial map; got NoneType"
    ),
    "euler_integral(None)": (
        lambda: lc.euler_integral(None),
        "euler_integral needs a constructible function; got NoneType",
    ),
    "restrict(SPHERE, [])": (
        lambda: lc.restrict(SPHERE, []),
        "restrict needs a constructible function; got SimplicialComplex",
    ),
    "combine(1, ONE, 1, None)": (
        lambda: lc.combine(1, ONE, 1, None),
        "combine needs a constructible function; got NoneType",
    ),
    "scale(2, 5)": (
        lambda: lc.euler.scale(2, 5), "scale needs a constructible function; got int"
    ),
    "pushforward(TRIANGLE_MAP, None)": (
        lambda: lc.pushforward(TRIANGLE_MAP, None),
        "pushforward needs a constructible function; got NoneType",
    ),
    "pullback(TRIANGLE_MAP, None)": (
        lambda: lc.pullback(TRIANGLE_MAP, None),
        "pullback needs a constructible function; got NoneType",
    ),
    "transport_to_subdivision(None, ...)": (
        lambda: lc.euler.transport_to_subdivision(
            None, *lc.subdivided_complex(TRIANGLE, 1)
        ),
        "transport_to_subdivision needs a constructible function; got NoneType",
    ),
    "pushforward_spec(REFLECTION.spec, None)": (
        lambda: lc.pushforward_spec(REFLECTION.spec, None),
        "pushforward_spec needs a constructible function; got NoneType",
    ),
    "cc_table(None, HEIGHTS)": (
        lambda: lc.cc_table(None, HEIGHTS),
        "cc_table needs a constructible function; got NoneType",
    ),
    "index_sum(HEIGHTS, HEIGHTS)": (
        lambda: lc.index_sum(HEIGHTS, HEIGHTS),
        "index_sum needs a constructible function; got VertexFunctional",
    ),
    "morse_multiplicity(None, TRIANGLE_HEIGHTS, 0)": (
        lambda: lc.morse_multiplicity(None, TRIANGLE_HEIGHTS, 0),
        "morse_multiplicity needs a constructible function; got NoneType",
    ),
    "genericity_check(HEXAGON, None)": (
        lambda: lc.genericity_check(HEXAGON, None),
        "genericity_check needs a vertex functional; got NoneType",
    ),
    "cc_table(TRIANGLE_ONE, {0: 0, 1: 1, 2: 2})": (
        lambda: lc.cc_table(TRIANGLE_ONE, {0: 0, 1: 1, 2: 2}),
        "cc_table needs a vertex functional; got dict",
    ),
    "index_sum(TRIANGLE_ONE, None)": (
        lambda: lc.index_sum(TRIANGLE_ONE, None),
        "index_sum needs a vertex functional; got NoneType",
    ),
    "morse_multiplicity(TRIANGLE_ONE, None, 0)": (
        lambda: lc.morse_multiplicity(TRIANGLE_ONE, None, 0),
        "morse_multiplicity needs a vertex functional; got NoneType",
    ),
    "lefschetz_cycle_table(REFLECTION, 0, None)": (
        lambda: lc.lefschetz_cycle_table(REFLECTION, 0, None),
        "lefschetz_cycle_table needs a vertex functional; got NoneType",
    ),
    "microlocal_index(REFLECTION, 0, None)": (
        lambda: lc.microlocal_index(REFLECTION, 0, None),
        "microlocal_index needs a vertex functional; got NoneType",
    ),
    # no simplex, complex, chain complex, polynomial or flag model: each
    # raised a raw TypeError or AttributeError
    "canonical_tuple(None)": (
        lambda: lc.canonical_tuple(None), "canonical_tuple needs a simplex; got NoneType"
    ),
    "canonical_tuple(5)": (
        lambda: lc.canonical_tuple(5), "canonical_tuple needs a simplex; got int"
    ),
    "transport_to_subdivision(TRIANGLE_ONE, None, {})": (
        lambda: lc.euler.transport_to_subdivision(TRIANGLE_ONE, None, {}),
        "transport_to_subdivision needs a simplicial complex; got NoneType",
    ),
    # arguments on the subdivision surface, which raised a raw TypeError,
    # KeyError or AttributeError
    "subdivided_complex(SPHERE, [1])": (
        lambda: lc.subdivided_complex(SPHERE, [1]),
        "subdivision level must be an integer, got [1]",
    ),
    "transport_to_subdivision(TRIANGLE_ONE, sd TRIANGLE, None)": (
        lambda: lc.euler.transport_to_subdivision(
            TRIANGLE_ONE, lc.subdivided_complex(TRIANGLE, 1)[0], None
        ),
        "transport_to_subdivision needs a carrier for every simplex of `finer`",
    ),
    "transport_to_subdivision(TRIANGLE_ONE, sd TRIANGLE, {})": (
        lambda: lc.euler.transport_to_subdivision(
            TRIANGLE_ONE, lc.subdivided_complex(TRIANGLE, 1)[0], {}
        ),
        "transport_to_subdivision needs a carrier for every simplex of `finer`",
    ),
    "sd_positions(5)": (
        lambda: lc.complexes.sd_positions(5),
        "sd_positions needs a simplicial complex; got int",
    ),
    "closure(5)": (
        lambda: lc.complexes.closure(5), "closure needs a cellular subset; got int"
    ),
    "whole_space(5)": (
        lambda: lc.complexes.whole_space(5),
        "whole_space needs a simplicial complex or a cell space; got int",
    ),
    "betti(5)": (lambda: lc.betti(5), "betti needs a chain complex; got int"),
    "count_real_roots_geq(5, 1)": (
        lambda: lc.count_real_roots_geq(5, 1),
        "count_real_roots_geq needs a rational polynomial; got int",
    ),
    "schubert_subset(5, (1, 2))": (
        lambda: lc.schubert_subset(5, (1, 2)),
        "schubert_subset needs a Bruhat cell space; got int",
    ),
    "open_cell_complement(None)": (
        lambda: lc.flags.open_cell_complement(None),
        "open_cell_complement needs a Bruhat cell space; got NoneType",
    ),
    # a value that is no space of either kind
    "validate(5)": (
        lambda: lc.validate(5),
        "validate needs a simplicial complex or a cell space; got int",
    ),
    "chi_c(5)": (
        lambda: lc.chi_c(5), "chi_c needs a simplicial complex or a cell space; got int"
    ),
    "connected_components(5)": (
        lambda: lc.connected_components(5),
        "connected_components needs a simplicial complex or a cell space; got int",
    ),
    "ConstructibleFunction.of(5, {})": (
        lambda: lc.ConstructibleFunction.of(5, {}),
        "ConstructibleFunction.of needs a simplicial complex or a cell space; got int",
    ),
    "ConstructibleFunction.indicator(5)": (
        lambda: lc.ConstructibleFunction.indicator(5),
        "ConstructibleFunction.indicator needs a simplicial complex or a cell space; "
        "got int",
    ),
    "CellularSubset.of(5, [])": (
        lambda: lc.CellularSubset.of(5, []),
        "CellularSubset.of needs a simplicial complex or a cell space; got int",
    ),
    # a raw record constructor, a size or a cell key of the wrong kind: each
    # raised a raw AttributeError or TypeError, or returned a record
    "CellularSubset(5, frozenset())": (
        lambda: lc.CellularSubset(5, frozenset()),
        "CellularSubset needs a simplicial complex or a cell space; got int",
    ),
    "CellularSubset(TRIANGLE, set())": (
        lambda: lc.CellularSubset(TRIANGLE, set()),
        "CellularSubset needs a frozenset of cells; got set",
    ),
    "MultiplicityTable(5, {}).sorted_entries()": (
        lambda: lc.MultiplicityTable(5, {}).sorted_entries(),
        "MultiplicityTable needs a simplicial complex; got int",
    ),
    "SimplicialMap(5, TRIANGLE, {})": (
        lambda: lc.SimplicialMap(5, TRIANGLE, {}),
        "SimplicialMap.build needs a simplicial complex; got int",
    ),
    "RationalMatrix(5)": (lambda: lc.RationalMatrix(5), "not a matrix: 5"),
    "RationalMatrix((), 'x')": (
        lambda: lc.RationalMatrix((), "x"),
        "the number of columns must be an integer, got 'x'",
    ),
    "RationalPolynomial(5)": (
        lambda: lc.RationalPolynomial(5), "not a coefficient list: 5"
    ),
    "RationalMatrix.identity('x')": (
        lambda: lc.RationalMatrix.identity("x"),
        "the size of an identity matrix must be an integer, got 'x'",
    ),
    "RationalMatrix.zeros(-1, 2)": (
        lambda: lc.RationalMatrix.zeros(-1, 2),
        "the number of rows must be at least 0, got -1",
    ),
    "SimplicialComplex.cell_dim(5)": (
        lambda: lc.SimplicialComplex.cell_dim(5), "not a simplex: 5"
    ),
}
# the probes above of a value that is no spec, or no problem
NOT_A_SPEC_OR_PROBLEM = [
    call for call, (_, text) in NAMED_PROBES.items()
    if "needs a self-map spec;" in text or "needs a traced problem;" in text
]
# and of a value that is no map, constructible function or vertex functional
NOT_A_MAP_OR_FUNCTION = [
    call for call, (_, text) in NAMED_PROBES.items()
    if any(f"needs {noun};" in text for noun in (
        lc.SimplicialMap.noun, lc.ConstructibleFunction.noun, lc.VertexFunctional.noun
    ))
]
# and of a value that is no simplex, chain complex, polynomial or flag model
NOT_A_SIMPLEX_OR_MODEL = [
    call for call, (_, text) in NAMED_PROBES.items()
    if any(f"needs {noun};" in text for noun in (
        "a simplex", lc.homology.ChainComplexQ.noun, lc.RationalPolynomial.noun,
        lc.BruhatCellSpace.noun,
    ))
]


@pytest.mark.parametrize("call", sorted(NAMED_PROBES))
def test_each_named_probe_is_refused_with_its_text(call):
    attempt, text = NAMED_PROBES[call]
    with pytest.raises(DegenerateInputError) as caught:
        attempt()
    assert str(caught.value) == text


# a subdivision of a cell space, which has no incidence to subdivide: each
# call raised a raw AttributeError at level 0 or before the first f-vector
CELL_SPACE_PROBES = {
    "subdivided_complex(CP1, 0)": (
        lambda: lc.subdivided_complex(CP1, 0), "subdivided_complex"
    ),
    "subdivided_complex(CP1, 2)": (
        lambda: lc.subdivided_complex(CP1, 2), "subdivided_complex"
    ),
    "SelfMapSpec.build(CP1, 0, {})": (
        lambda: lc.SelfMapSpec.build(CP1, 0, {}), "subdivided_complex"
    ),
    "subdivision_f_vectors(CP1)": (
        lambda: lc.complexes.subdivision_f_vectors(CP1), "subdivision_f_vectors"
    ),
}


@pytest.mark.parametrize("call", [
    "subdivided_complex(None, 0)", "star(5, 'a')", "SelfMapSpec.identity(5)",
    "SimplicialMap.build(5, TRIANGLE, {})", "SimplicialMap.build(TRIANGLE, None, {})",
    "VertexFunctional.of(5, {})", "transport_to_subdivision(TRIANGLE_ONE, None, {})",
    "validate(5)", "chi_c(5)", "connected_components(5)", "sd_positions(5)",
    "whole_space(5)",
    "ConstructibleFunction.of(5, {})", "ConstructibleFunction.indicator(5)",
    "CellularSubset.of(5, [])", "CellularSubset(5, frozenset())",
    "MultiplicityTable(5, {}).sorted_entries()", "SimplicialMap(5, TRIANGLE, {})",
])
def test_a_value_that_is_no_space_is_refused_as_degenerate_input(call):
    attempt, _ = NAMED_PROBES[call]
    with pytest.raises(LefscalcError) as caught:
        attempt()
    assert type(caught.value) is DegenerateInputError
    assert caught.value.exit_code == 2


@pytest.mark.parametrize("call", NOT_A_SPEC_OR_PROBLEM)
def test_a_value_that_is_no_spec_or_problem_is_refused_as_degenerate_input(call):
    attempt, _ = NAMED_PROBES[call]
    with pytest.raises(LefscalcError) as caught:
        attempt()
    assert type(caught.value) is DegenerateInputError
    assert caught.value.exit_code == 2


@pytest.mark.parametrize("call", NOT_A_MAP_OR_FUNCTION + NOT_A_SIMPLEX_OR_MODEL)
def test_a_value_that_is_no_map_or_function_is_refused_as_degenerate_input(call):
    attempt, _ = NAMED_PROBES[call]
    with pytest.raises(LefscalcError) as caught:
        attempt()
    assert type(caught.value) is DegenerateInputError
    assert caught.value.exit_code == 2


# a call (by its text) whose arguments are each of the right kind but do not
# fit together, or a value no other test hands in: the refusal's type and text
REFUSALS = {
    "combine of functions on two spaces": (
        lambda: lc.combine(1, ONE, 1, TRIANGLE_ONE),
        DegenerateInputError, "combine needs functions on the same space",
    ),
    "pushforward along a map that is not simplicial": (
        lambda: lc.pushforward(
            lc.SimplicialMap(HEXAGON, HEXAGON, HEXAGON_FOLD),
            lc.ConstructibleFunction.indicator(HEXAGON),
        ),
        lc.NonSimplicialMapError,
        "simplex ('v0', 'v1') maps onto ('v0', 'v3'), not a simplex of the target",
    ),
    "pushforward of a function off the map's source": (
        lambda: lc.pushforward(TRIANGLE_MAP, ONE),
        DegenerateInputError, "function does not live on the map's source",
    ),
    "pullback of a function off the map's target": (
        lambda: lc.pullback(TRIANGLE_MAP, ONE),
        DegenerateInputError, "function does not live on the map's target",
    ),
    "pushforward_spec of a function off the base": (
        lambda: lc.pushforward_spec(REFLECTION.spec, ONE),
        DegenerateInputError, "function does not live on the base complex",
    ),
    "compose of maps that do not compose": (
        lambda: lc.compose(
            lc.SimplicialMap.build(SPHERE, SPHERE, {v: v for v in SPHERE.vertices}),
            TRIANGLE_MAP,
        ),
        DegenerateInputError, "maps are not composable",
    ),
    "refine of a map that folds an edge": (
        lambda: lc.refine(lc.SelfMapSpec.build(TRIANGLE, 0, {0: 0, 1: 0, 2: 0})),
        DegenerateInputError,
        "refinement needs a map that is injective on every subdivision simplex",
    ),
    "SimplicialMap.build with an image outside the target": (
        lambda: lc.SimplicialMap.build(TRIANGLE, TRIANGLE, {0: 0, 1: 1, 2: 5}),
        lc.NonSimplicialMapError, "images outside target: [5]",
    ),
    "parse_problem with a map block that is no object": (
        lambda: io.parse_problem(
            {"schema": io.SCHEMA, "complex": io.complex_to_json(TRIANGLE), "map": 5}
        ),
        ParseError, "map block must be an object",
    ),
    "problem_to_json(5)": (
        lambda: io.problem_to_json(5), ParseError, "cannot serialize int"
    ),
    "leading() of the zero polynomial": (
        lambda: lc.RationalPolynomial.of([]).leading(),
        DegenerateInputError, "zero polynomial has no leading coefficient",
    ),
    "divmod by the zero polynomial": (
        lambda: lc.RationalPolynomial.of([1]).divmod(lc.RationalPolynomial.of([])),
        DegenerateInputError, "polynomial division by zero",
    ),
    "count_real_roots_geq of the zero polynomial": (
        lambda: lc.count_real_roots_geq(lc.RationalPolynomial.of([]), 1),
        DegenerateInputError, "root counting on the zero polynomial",
    ),
    "char_poly of a 1 x 2 matrix": (
        lambda: lc.RationalMatrix.of([[1, 2]]).char_poly(),
        DegenerateInputError, "char_poly needs a square matrix",
    ),
    # returned unchecked at level 0 while the subdivision tower stood
    "subdivided_complex of an invalid base at level 0": (
        lambda: lc.subdivided_complex(lc.SimplicialComplex.build(["a"], []), 0),
        lc.InvalidComplexError,
        "1 violation(s): vertex-not-a-cell: vertex 'a' has no 0-simplex",
    ),
    # a check on maximal cells alone would accept this map, whose vertex
    # 'a' lands on the missing cell ('x',)
    "a map into a complex that is not face-closed": (
        lambda: lc.SimplicialMap(
            PATH, lc.SimplicialComplex.build(["x", "y"], [["x", "y"], ["y"]]),
            {"a": "x", "b": "y", "c": "y"},
        ),
        lc.InvalidComplexError,
        "2 violation(s): not-face-closed: face ('x',) of ('x', 'y') is missing; "
        "vertex-not-a-cell: vertex 'x' has no 0-simplex",
    ),
}


@pytest.mark.parametrize("call", sorted(REFUSALS))
def test_each_refusal_is_raised_with_its_type_and_text(call):
    attempt, kind, text = REFUSALS[call]
    with pytest.raises(LefscalcError) as caught:
        attempt()
    assert type(caught.value) is kind and str(caught.value) == text


@pytest.mark.parametrize("call", sorted(CELL_SPACE_PROBES))
def test_a_cell_space_is_refused_by_the_subdivision_tower(call):
    attempt, operation = CELL_SPACE_PROBES[call]
    with pytest.raises(CellSpaceUnsupportedError) as caught:
        attempt()
    assert str(caught.value) == (
        f"{operation} needs simplicial incidence data; got a cell space"
    )
    assert caught.value.exit_code == 2


def test_an_unhashable_image_is_no_vertex_of_the_target():
    with pytest.raises(lc.NonSimplicialMapError, match="images outside target"):
        lc.SimplicialMap.build(SPHERE, SPHERE, {v: [v] for v in SPHERE.vertices})


HEXAGON_IDENTITY = {v: v for v in HEXAGON.vertices}
# a raw constructor call, by its arguments, that must refuse as its checked
# builder does, and the refusal's type and text: each raw call was
# accepted, and failed at first use
CHECKED_BUILDERS = {
    lc.SelfMapSpec: lc.SelfMapSpec.build, lc.NormalData: lc.NormalData.of,
    lc.SimplicialMap: lc.SimplicialMap.build, lc.RationalMatrix: lc.RationalMatrix.of,
    lc.RationalPolynomial: lc.RationalPolynomial.of,
}
RAW_PROBES = {
    "SimplicialMap(HEXAGON, HEXAGON, HEXAGON_FOLD)": (
        lc.SimplicialMap, (HEXAGON, HEXAGON, HEXAGON_FOLD), lc.NonSimplicialMapError,
        "simplex ('v0', 'v1') maps onto ('v0', 'v3'), not a simplex of the target",
    ),
    "RationalMatrix([[1, 2], '34'])": (
        lc.RationalMatrix, ([[1, 2], "34"],), DegenerateInputError,
        "not a row of a matrix: '34'",
    ),
    "RationalPolynomial('12')": (
        lc.RationalPolynomial, ("12",), DegenerateInputError,
        "not a coefficient list: '12'",
    ),
    "SelfMapSpec(HEXAGON, 0, {})": (
        lc.SelfMapSpec, (HEXAGON, 0, {}), lc.NonSimplicialMapError,
        "vertices without images: ['v0', 'v1', 'v2', 'v3']",
    ),
    "SelfMapSpec(HEXAGON, 0, v1 onto v3)": (
        lc.SelfMapSpec, (HEXAGON, 0, {**HEXAGON_IDENTITY, "v1": "v3"}),
        lc.NonSimplicialMapError,
        "simplex ('v0', 'v1') maps onto ('v0', 'v3'), not a simplex of the target",
    ),
    "SelfMapSpec(SPHERE, True, the identity)": (
        lc.SelfMapSpec, (SPHERE, True, _identity_map(SPHERE, [])),
        DegenerateInputError, "subdivision level must be an integer, got True",
    ),
    "NormalData(((0, 'x'),))": (
        lc.NormalData, (((0, "x"),),), DegenerateInputError, "not a matrix: 'x'"
    ),
    "NormalData(5)": (
        lc.NormalData, (5,), DegenerateInputError,
        "not a table of (key, value) pairs: 5",
    ),
    "NormalData([(0, [[1, 2]])])": (
        lc.NormalData, ([(0, [[1, 2]])],), DegenerateInputError,
        "normal matrix for component 0 is not square",
    ),
}


@pytest.mark.parametrize("call", sorted(RAW_PROBES))
def test_a_raw_constructor_refuses_as_its_checked_builder_does(call):
    cls, args, kind, text = RAW_PROBES[call]
    for attempt in (cls, CHECKED_BUILDERS[cls]):
        with pytest.raises(LefscalcError) as caught:
            attempt(*args)
        assert type(caught.value) is kind and str(caught.value) == text


def _seeded_specs():
    """Level-0 random self-maps, and level-1 maps that send each vertex of
    sd to a vertex of its carrier and then along a random self-map."""
    rng = random.Random(38)
    for _ in range(15):
        yield random_self_map(rng, random_complex(rng))
    for _ in range(10):
        space = random_complex(rng, max_vertices=5, max_dim=2, max_simplices=20)
        g = random_self_map(rng, space).vertex_map
        sd = lc.subdivided_complex(space, 1)[0]
        yield lc.SelfMapSpec.build(
            space, 1, {w: g[rng.choice(w)] for w in sd.vertices}
        )


def test_a_spec_is_built_one_way():
    """The constructor is build: equal specs with the same subdivision and
    images, and no fallback that computes them from an unchecked map."""
    assert not hasattr(lc.SelfMapSpec, "subdivision")
    assert not hasattr(lc.SelfMapSpec, "images")
    fixtures = [fx.rotation_spec(), fx.reflection_spec(), fx.doubling_spec()]
    for spec in [*fixtures, lc.SelfMapSpec.identity(SPHERE), *_seeded_specs()]:
        raw = lc.SelfMapSpec(spec.base, spec.level, spec.vertex_map)
        built = lc.SelfMapSpec.build(spec.base, spec.level, spec.vertex_map)
        assert raw == built == spec
        assert raw.subdivision is built.subdivision
        assert raw.images == built.images == spec.images


NORMAL_TABLES = {
    "dict": {0: [[-1]], 1: [[2, 0], [0, "1/3"]]},
    "pairs": [("1", [[2, 0], [0, "1/3"]]), (0, lc.RationalMatrix.of([[-1]]))],
    "reflection": REFLECTION.normal.matrices,
    "doubling": fx.doubling_problem().normal.matrices,
    "empty": {},
}


@pytest.mark.parametrize("name", sorted(NORMAL_TABLES))
def test_normal_data_is_built_one_way(name):
    table = NORMAL_TABLES[name]
    data = lc.NormalData(table)
    assert data == lc.NormalData.of(table)
    assert lc.NormalData.of(data) is data
    assert all(isinstance(m, lc.RationalMatrix) for _, m in data.matrices)
