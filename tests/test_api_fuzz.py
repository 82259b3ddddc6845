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

Two wrong objects stay Python's own TypeError and are not drawn: an object
that is no complex where a complex is expected (such as None), and an
unhashable level given to `subdivided_complex` itself, whose cache hashes
its arguments before any reader runs.
"""

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

SPHERE = fx.sphere2()
CP1 = fx.cp1_cellspace()
REFLECTION = fx.reflection_problem()
HEXAGON = REFLECTION.spec.base
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
    name=st.sampled_from(sorted(LEVEL_CALLS)),
    level=st.one_of(st.integers(-3, 1), HASHABLE),
    unhashable=ODD,
)
def test_a_level_is_an_int_that_is_not_a_bool(name, level, unhashable):
    _settles(LEVEL_CALLS[name], level)
    _settles(LEVEL_CALLS["SelfMapSpec.build"], unhashable)


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
}


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


@pytest.mark.parametrize("call", ["subdivided_complex(None, 0)", "star(5, 'a')"])
def test_a_value_that_is_no_space_is_refused_as_degenerate_input(call):
    attempt, _ = NAMED_PROBES[call]
    with pytest.raises(LefscalcError) as caught:
        attempt()
    assert type(caught.value) is DegenerateInputError
    assert caught.value.exit_code == 2


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
