"""The record contract: every data class of the package is immutable, and
compares by value or by identity as it always has."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from lefscalc import fixtures as fx
from lefscalc.complexes import (
    Cell,
    CellSpace,
    SimplicialComplex,
    Violation,
    whole_space,
)
from lefscalc.euler import ConstructibleFunction
from lefscalc.exact import GaussianRational, RationalMatrix, RationalPolynomial
from lefscalc.errors import DegenerateInputError
from lefscalc.fixedpoint import FixedComponent, NormalData, TracedProblem
from lefscalc.flags import BruhatCellSpace, Example39Problem, FamilyPattern
from lefscalc.homology import ChainComplexQ, ChainMapQ, SparseMatrix, chain_complex
from lefscalc.io import Problem
from lefscalc.maps import SelfMapSpec, SimplicialMap
from lefscalc.morse import CycleTableReport, MultiplicityTable, VertexFunctional
from lefscalc.reports import Report, parse_report
from lefscalc.verify import VerifyConfig


def edge():
    return SimplicialComplex.from_maximal([("a", "b")])


def cells():
    return CellSpace.build([Cell("a", 0, "c0"), Cell("b", 2, "c0")])


def example_cells():
    space = cells()
    return Example39Problem(space, whole_space(space), (), Fraction(1, 2))


# name -> (a builder of fresh records with equal fields, the field names)
VALUES = {
    "SimplicialComplex": (edge, ("vertices", "simplices", "coords")),
    "Cell": (lambda: Cell("a", 0, "c0"), ("ident", "dim", "component")),
    "CellSpace": (cells, ("cells",)),
    "CellularSubset": (lambda: whole_space(edge()), ("parent", "members")),
    "Violation": (
        lambda: Violation("empty-simplex", "the empty set is not a cell"),
        ("kind", "detail"),
    ),
    "GaussianRational": (
        lambda: GaussianRational(Fraction(1, 2), Fraction(-3)), ("re", "im")
    ),
    "RationalMatrix": (
        lambda: RationalMatrix.of([[1, 2], [3, "1/4"]]), ("rows", "cols")
    ),
    "RationalPolynomial": (lambda: RationalPolynomial.of([1, 0, 2]), ("coeffs",)),
    "NormalData": (lambda: NormalData.of({0: [[2]]}), ("matrices",)),
    "FamilyPattern": (
        lambda: FamilyPattern("c0", "lines_in_plane", False, 2),
        ("label", "family", "contained", "points"),
    ),
    "VerifyConfig": (lambda: VerifyConfig(3, 4), ("seed", "cases")),
}
IDENTITIES = {
    "SparseMatrix": (
        lambda: SparseMatrix(1, 1, ({0: 1},)), ("nrows", "ncols", "columns")
    ),
    "ChainComplexQ": (
        lambda: ChainComplexQ(edge(), frozenset(), (), (), ()),
        ("space", "dropped", "bases", "boundaries", "index"),
    ),
    "ChainMapQ": (
        lambda: ChainMapQ(chain_complex(edge()), ()),
        ("source", "matrices"),
    ),
    "FixedComponent": (
        lambda: FixedComponent(
            whole_space(edge()), RationalMatrix.zeros(0, 0),
            RationalPolynomial.of([1]), 1,
        ),
        ("cells", "matrix", "char_poly", "sign"),
    ),
    "TracedProblem": (
        lambda: TracedProblem(SelfMapSpec.identity(edge())),
        ("spec", "support", "traces", "normal", "complex_model",
         "non_characteristic"),
    ),
    "MultiplicityTable": (
        lambda: MultiplicityTable(edge(), {}), ("space", "entries")
    ),
    "CycleTableReport": (
        lambda: CycleTableReport(
            0, "spectrum-below-one", 1, MultiplicityTable(edge(), {})
        ),
        ("component", "regime", "sign", "table"),
    ),
    "BruhatCellSpace": (
        lambda: BruhatCellSpace(1, cells(), ((1,),)), ("n", "space", "perms")
    ),
    "Example39Problem": (example_cells, ("space", "support", "patterns", "ratio")),
    "Problem": (
        lambda: Problem(edge(), None, None, None, None, None, None, False, False, None),
        ("space", "spec", "push_map", "phi", "support", "traces", "normal",
         "complex_model", "non_characteristic", "ell"),
    ),
}
# Equal with equal fields but unhashable: SimplicialMap, SelfMapSpec and
# VertexFunctional compare as Values, and hashing their dict field raises
# TypeError; ConstructibleFunction keeps its own __eq__.
OWN_EQ = {
    "SimplicialMap": (
        lambda: SimplicialMap(edge(), edge(), {"a": "a", "b": "b"}),
        ("source", "target", "vertex_map"),
    ),
    "SelfMapSpec": (
        lambda: SelfMapSpec(edge(), 0, {"a": "a", "b": "b"}),
        ("base", "level", "vertex_map"),
    ),
    "ConstructibleFunction": (
        lambda: ConstructibleFunction(edge(), {}), ("parent", "values")
    ),
    "VertexFunctional": (lambda: VertexFunctional({"a": Fraction(1)}), ("values",)),
}
RECORDS = {**VALUES, **IDENTITIES, **OWN_EQ}


def test_every_former_dataclass_is_covered():
    assert len(RECORDS) == 25
    for name, (build, _) in RECORDS.items():
        assert type(build()).__name__ == name


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    build, names = RECORDS[name]
    a, b = build(), build()
    for target in (names[0], "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(a, target, 0)
        with pytest.raises(AttributeError):
            delattr(a, target)
    assert repr(a) == repr(b)
    fields = tuple(getattr(a, field) for field in names)
    assert a != fields and fields != a
    if name in VALUES:
        assert a == b and hash(a) == hash(b) and hash(a) == hash(fields)
        assert pickle.loads(pickle.dumps(a)) == a
    elif name in IDENTITIES:
        assert a == a and a != b and hash(a) != hash(b)
    else:
        assert a == b
        with pytest.raises(TypeError):
            hash(a)
    again = copy.copy(a)
    assert all(getattr(again, field) is getattr(a, field) for field in names)
    with pytest.raises(AttributeError):
        setattr(again, names[0], 0)
    cls = type(a)
    if "__init__" not in vars(cls):  # built by Record's shared constructor
        assert cls._fields == names
        named = dict(zip(names, fields))
        for twin in (cls(**named), cls(fields[0], **dict(list(named.items())[1:]))):
            assert all(getattr(twin, f) is v for f, v in named.items())
        signature = re.escape(f"{name}({', '.join(names)})")
        for bad in (
            lambda: cls(*fields[:-1]),
            lambda: cls(*fields, None),
            lambda: cls(*fields[1:], no_such_field=0),
            lambda: cls(*fields, **{names[0]: fields[0]}),
        ):
            with pytest.raises(TypeError, match=signature):
                bad()


def test_report_is_a_read_only_unhashable_record():
    report = Report("chi", chi=2)
    with pytest.raises(AttributeError):
        del report.chi
    with pytest.raises(AttributeError):
        report.chi = 3
    assert report.chi == 2 and report.to_json() == {"kind": "chi", "chi": 2}
    assert repr(report) == "Report(kind='chi', chi=2)"
    two = GaussianRational(Fraction(2))
    nested = Report(
        "localization", global_trace=two, sum_of_local=two, equal=True,
        components=({"index": 0, "term": two},),
    )
    for r in (report, nested):
        for again in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert again == r and again.to_json() == r.to_json()
        with pytest.raises(TypeError):
            hash(r)
        assert parse_report(r.to_json()) == r


def test_constructor_checks_keep_their_texts():
    with pytest.raises(
        DegenerateInputError, match="^row width 1 disagrees with cols 2$"
    ):
        RationalMatrix(((Fraction(1), Fraction(2)), (Fraction(3),)))
    with pytest.raises(
        DegenerateInputError, match="^row width 1 disagrees with cols 0$"
    ):
        RationalMatrix(((Fraction(1),),), 0)
    assert RationalMatrix(()).cols == 0
    assert RationalMatrix(((),) * 2).cols == 0
    with pytest.raises(DegenerateInputError, match="^cases must be at least 1, got 0$"):
        VerifyConfig(cases=0)
    assert VerifyConfig() == VerifyConfig(0, 25)
    assert RationalPolynomial((Fraction(1), Fraction(0))).coeffs == (1,)


def test_the_shared_constructor_names_the_class_and_its_fields():
    columns = ({0: 1},)
    assert SparseMatrix(1, ncols=1, columns=columns).columns is columns
    for call, given in (
        (lambda: SparseMatrix(1, 1), "2 by position and none"),
        (lambda: SparseMatrix(columns=columns), "0 by position and columns"),
        (lambda: SparseMatrix(1, 1, columns, 0), "4 by position and none"),
        (lambda: SparseMatrix(1, 1, columns, rows=()), "3 by position and rows"),
        (lambda: SparseMatrix(1, columns=columns, ncols=1, nrows=1),
         "1 by position and columns, ncols, nrows"),
    ):
        with pytest.raises(TypeError) as caught:
            call()
        assert str(caught.value) == (
            "SparseMatrix(nrows, ncols, columns) takes each field once; "
            f"got {given} by name"
        )


def test_reprs_keep_the_field_style():
    assert repr(GaussianRational(Fraction(1, 2), Fraction(3))) == (
        "GaussianRational(re=Fraction(1, 2), im=Fraction(3, 1))"
    )
    assert repr(GaussianRational()) == (
        "GaussianRational(re=Fraction(0, 1), im=Fraction(0, 1))"
    )
    assert repr(RationalMatrix.of([[1, "1/4"]])) == (
        "RationalMatrix(rows=((Fraction(1, 1), Fraction(1, 4)),), cols=2)"
    )
    assert repr(RationalMatrix.zeros(0, 2)) == "RationalMatrix(rows=(), cols=2)"
    assert repr(Cell("a", 0)) == "Cell(ident='a', dim=0, component=None)"
    assert repr(Cell("b", 2, "c0")) == "Cell(ident='b', dim=2, component='c0')"


def test_traced_problems_never_share_their_component_cache():
    p, q = fx.reflection_problem(), fx.reflection_problem()
    assert p._components is not q._components
    p.component(0)
    assert list(p._components) == [0] and q._components == {}
    assert TracedProblem(p.spec)._components is not TracedProblem(p.spec)._components


def _twin_chain_complexes():
    cc = chain_complex(fx.sphere2())
    return cc, ChainComplexQ(cc.space, cc.dropped, cc.bases, cc.boundaries, cc.index)


def _twin_components():
    comp = fx.reflection_problem().component(0)
    return comp, FixedComponent(comp.cells, comp.matrix, comp.char_poly, comp.sign)


@pytest.mark.parametrize(
    "twins, name",
    [
        (lambda: (edge(), edge()), "_vertex_index"),
        (lambda: (cells(), cells()), "_by_ident"),
        (lambda: (cells(), cells()), "cell_keys"),
        (_twin_components, "meets_ray"),
        (lambda: (fx.reflection_problem(), fx.reflection_problem()), "fixed_locus"),
        (lambda: (fx.reflection_problem(), fx.reflection_problem()), "local_trace"),
        (lambda: (fx.rotation_spec(), fx.rotation_spec()), "_map"),
        (_twin_chain_complexes, "_reductions"),
    ],
)
def test_each_cached_property_is_computed_per_instance(twins, name):
    a, b = twins()
    assert a is not b
    vars(a).pop(name, None)
    vars(b).pop(name, None)
    first = getattr(a, name)
    assert name in vars(a) and name not in vars(b)
    second = getattr(b, name)
    assert vars(a)[name] is first and vars(b)[name] is second
    if not isinstance(first, bool):
        assert first is not second
