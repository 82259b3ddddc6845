"""Exact arithmetic: matrices, polynomials, root counting, feasibility."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lefscalc import exact
from lefscalc.errors import DegenerateInputError
from lefscalc.exact import (
    GaussianRational,
    Rat,
    RationalMatrix,
    RationalPolynomial,
    count_real_roots_geq,
    count_real_roots_gt,
    format_rational,
    has_nonneg_solution,
    parse_rational,
)

rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


def rand_matrix(rng, n, lo=-5, hi=5, den=3):
    return RationalMatrix.of(
        [
            [Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(n)]
            for _ in range(n)
        ]
    )


# ---------------------------------------------------------------------------
# parsing and formatting

def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational(Fraction(1, 7)) == Fraction(1, 7)


@pytest.mark.parametrize("bad", [True, False, 1.5, "x", "1/0", None, [1]])
def test_parse_rational_rejects(bad):
    with pytest.raises(DegenerateInputError):
        parse_rational(bad)


def test_rational_literals_are_bounded_before_parsing():
    assert parse_rational("1e3") == 1000
    top = exact.LITERAL_MAX_EXPONENT
    assert parse_rational(f"1e{top}") == 10 ** top
    assert parse_rational(f"1e-{top}") == Fraction(1, 10 ** top)
    longest = "7" * exact.LITERAL_MAX_CHARS
    assert parse_rational(longest) == int(longest)
    for text in (f"1e{top + 1}", f"2.5E-{top + 1}", f"1e{top + 1:_}", longest + "7"):
        with pytest.raises(DegenerateInputError, match="exceeds the size bound"):
            parse_rational(text)


def test_format_round_trip():
    for x in [Fraction(0), Fraction(-3), Fraction(5, 9), Fraction(-7, 2)]:
        assert parse_rational(format_rational(x)) == x


def test_format_prints_a_fraction_as_it_is_and_reads_the_rest_as_one():
    assert [format_rational(x) for x in (Fraction(-6, 4), Fraction(5), 7, -2)] == [
        "-3/2", "5", "7", "-2"
    ]
    assert format_rational(True) == "1"
    assert str(GaussianRational(Fraction(1, 2), True)) == "1/2+1i"


def test_gaussian_arithmetic():
    a = GaussianRational.of({"re": "1/2", "im": "1"})
    b = GaussianRational.of(3)
    assert (a + b).re == Fraction(7, 2)
    assert (a * b).im == Fraction(3)
    prod = a * a  # (1/2 + i)^2 = 1/4 - 1 + i
    assert prod.re == Fraction(-3, 4) and prod.im == Fraction(1)
    assert (a - a).is_zero()
    assert GaussianRational.of(str(Fraction(2, 3))).re == Fraction(2, 3)


def test_gaussian_json_round_trip():
    a = GaussianRational(Rat(-5, 3), Rat(2))
    assert GaussianRational.of(a.to_json()) == a


@pytest.mark.parametrize(
    "value", [{"re": "1", "zz": 2}, {"im": "1", "Re": "1"}, {"x": 0}]
)
def test_gaussian_value_with_a_stray_key_is_refused(value):
    with pytest.raises(DegenerateInputError, match="keys 're', 'im'"):
        GaussianRational.of(value)
    assert GaussianRational.of({"im": "1/2"}) == GaussianRational(Rat(0), Rat(1, 2))


# ---------------------------------------------------------------------------
# matrices

def det_from_chi(m: RationalMatrix) -> Fraction:
    """det A = (-1)^n chi_A(0)."""
    return (-1) ** m.nrows * m.char_poly().coeffs[0]


def test_normal_matrix_surface_is_pinned():
    public = {name for name in dir(RationalMatrix) if not name.startswith("_")}
    assert public == {
        "of", "zeros", "identity", "nrows", "ncols", "is_square", "entry",
        "scale", "char_poly", "to_json", "rows", "cols",
    }
    assert not hasattr(exact, "row_echelon")


def test_det_against_cofactor_oracle():
    rng = random.Random(101)
    for _ in range(120):
        m = rand_matrix(rng, rng.randint(0, 4))
        assert det_from_chi(m) == oracles.det_cofactor(m)


def test_det_multiplicative_and_rank_nullity():
    rng = random.Random(202)
    for _ in range(500):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n)
        b = rand_matrix(rng, n)
        assert det_from_chi(oracles.matmul(a, b)) == det_from_chi(a) * det_from_chi(b)
        assert oracles.rank(a) + len(oracles.null_space(a)) == n


def sparse_matrix(rng, n):
    """Half the entries zero, so sub-diagonal pivots are often missing."""
    return RationalMatrix.of(
        [
            [
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.5 else 0
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def test_char_poly_against_interpolation_oracle():
    # [1][0] = 0 below a nonzero [2][0] forces a row and column swap; an
    # all-zero column below the sub-diagonal is skipped
    matrices = [
        RationalMatrix.of([[1, 2, 3], [0, 4, 5], [6, 7, 8]]),
        RationalMatrix.of([[1, 2, 3], [0, 4, 5], [0, 7, 8]]),
        RationalMatrix.of([[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [1, 0, 1, 0]]),
    ]
    rng = random.Random(303)
    for _ in range(60):
        matrices.append(rand_matrix(rng, rng.randint(1, 4), lo=-3, hi=3, den=2))
    matrices += [sparse_matrix(rng, rng.randint(0, 6)) for _ in range(40)]
    for m in matrices:
        expected = oracles.char_poly_interpolated(m).coeffs
        assert m.char_poly().coeffs == expected
        assert oracles.char_poly_faddeev_leverrier(m).coeffs == expected


def test_char_poly_of_companion_matrix():
    # companion of t^3 - 2t + 5
    m = RationalMatrix.of([[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    assert m.char_poly().coeffs == (Fraction(5), Fraction(-2), Fraction(0), Fraction(1))


def test_char_poly_of_a_conjugated_12x12_companion():
    # P C P^-1 with P unit upper-triangular is still upper Hessenberg; the
    # dense similar_matrix makes the reduction do the work
    rng = random.Random(505)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(12)]
    expected = tuple(coeffs) + (Fraction(1),)
    c = oracles.companion(coeffs)
    u, u_inv = oracles.unit_upper_triangular(rng, 12)
    assert oracles.matmul(u, u_inv) == RationalMatrix.identity(12)
    conjugated = oracles.matmul(oracles.matmul(u, c), u_inv)
    assert conjugated.char_poly().coeffs == expected
    assert oracles.similar_matrix(rng, c).char_poly().coeffs == expected


def test_int_entries_give_exact_results():
    m = RationalMatrix(((2, 1), (1, 3)))
    assert type(det_from_chi(m)) is Fraction and det_from_chi(m) == 5
    assert oracles.rank(m) == 2
    work, pivots = oracles.row_echelon([[2, 1], [1, 3]])
    assert pivots == [0, 1]
    assert {type(x) for row in work for x in row} == {Fraction}
    # a 3 x 3 matrix makes the Hessenberg reduction divide by 4
    m = RationalMatrix(((1, 2, 3), (4, 5, 6), (7, 8, 10)))
    assert type(det_from_chi(m)) is Fraction and det_from_chi(m) == -3
    chi = m.char_poly()
    assert {type(c) for c in chi.coeffs} == {Fraction}
    assert chi.coeffs == oracles.char_poly_interpolated(m).coeffs
    # near-ties that a float quotient rounds away: in the pivot (3t = 1
    # forces t = 1/3, and 10^17 / 3 is not 33333333333333333) and in the
    # ratio test
    big = 10**17
    cases = [
        ([[3], [big]], [1, big // 3], False),
        ([[3 * big - 3, big], [3, 0]], [2 * big, 2], True),
        ([[0, 3 * big - 2, 0], [1, 3 * big - 1, 0]], [2 * big, 2 * big], False),
    ]
    for rows, rhs, expected in cases:
        assert exact._phase1(rows, rhs) is expected
        assert has_nonneg_solution(rows, rhs) is expected
        exact_rows = [[Fraction(x) for x in row] for row in rows]
        assert oracles.feasible_bruteforce(exact_rows, list(map(Fraction, rhs))) is expected


def test_ragged_rows_are_refused():
    with pytest.raises(DegenerateInputError):
        RationalMatrix.of([[1, 0], [0]])


def test_zero_by_zero_conventions():
    empty = RationalMatrix.zeros(0, 0)
    assert det_from_chi(empty) == 1
    assert empty.char_poly().coeffs == (Fraction(1),)
    assert oracles.trace(empty) == 0


def test_empty_shapes_survive():
    tall = RationalMatrix.zeros(0, 3)
    assert tall.ncols == 3
    assert len(oracles.null_space(tall)) == 3
    assert oracles.transpose(tall).nrows == 3


def test_solve_consistency():
    rng = random.Random(404)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, lo=-3, hi=3, den=2)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        rhs = oracles.apply(m, x)
        result = oracles.solve(m, rhs)
        assert result is not None
        particular, basis = result
        assert oracles.apply(m, particular) == rhs
        for vec in basis:
            assert all(v == 0 for v in oracles.apply(m, vec))


def test_solve_detects_inconsistency():
    m = RationalMatrix.of([[1, 1], [2, 2]])
    assert oracles.solve(m, [Fraction(0), Fraction(1)]) is None


# ---------------------------------------------------------------------------
# polynomials and real roots

def test_polynomial_basics():
    p = RationalPolynomial.of([1, 2, 1])  # (t+1)^2
    assert p.squarefree_part().coeffs == RationalPolynomial.of([1, 1]).coeffs
    q, r = p.divmod(RationalPolynomial.of([1, 1]))
    assert r.is_zero() and q.coeffs == (Fraction(1), Fraction(1))
    assert p(Fraction(2)) == 9


@pytest.mark.parametrize(
    "coeffs,c,expected",
    [
        ([-2, 0, 1], 1, 1),      # roots +-sqrt(2)
        ([1, 0, 1], 1, 0),       # no real roots
        ([-1, 0, 0, 1], 1, 1),   # root exactly at 1
        ([2, -3, 1], 1, 2),      # roots 1 and 2
        ([0, 1], 1, 0),          # root 0 only
        ([-6, 11, -6, 1], 1, 3), # roots 1, 2, 3
        ([1, -2, 1], 1, 1),      # (t-1)^2
        ([-2, 5, -4, 1], 1, 2),  # (t-1)^2 (t-2)
        ([4, -4, 1], 1, 1),      # (t-2)^2
        ([1, 0, -2, 0, 1], 1, 1),  # (t^2-1)^2: roots -1 and 1
        ([-1, 3, -3, 1], 1, 1),  # (t-1)^3
    ],
)
def test_count_real_roots_geq_known(coeffs, c, expected):
    p = RationalPolynomial.of(coeffs)
    assert count_real_roots_geq(p, c) == expected


def test_count_real_roots_geq_against_isolation_oracle():
    """Random polynomials, then products f^2 g, some times (t - 1) or
    (t - 1)^2, which have a repeated factor: one Sturm chain on p agrees
    with root isolation and with Sturm on the squarefree part."""
    rng = random.Random(505)

    def draw(low, top):
        deg = rng.randint(low, top)
        return RationalPolynomial.of(
            [rng.randint(-4, 4) for _ in range(deg)] + [rng.randint(1, 4)]
        )

    at_one = RationalPolynomial.of([-1, 1])
    polys = [draw(1, 5) for _ in range(300)]
    for _ in range(300):
        f = draw(1, 2)
        p = f * f * draw(0, 2)
        for _ in range(rng.randint(0, 2)):
            p = p * at_one
        polys.append(p)
    for p in polys:
        expected = oracles.count_real_roots_geq_oracle(p, 1)
        assert count_real_roots_geq(p, 1) == expected, p.coeffs
        assert oracles.count_real_roots_geq_squarefree(p, 1) == expected, p.coeffs


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=5), st.integers(1, 4))
def test_count_real_roots_property(coeffs, lead):
    p = RationalPolynomial.of(coeffs + [lead])
    assert count_real_roots_geq(p, 1) == oracles.count_real_roots_geq_oracle(p, 1)


GRID_ROOTS = sorted({Fraction(k, d) for k in range(-3, 4) for d in (1, 2, 3)})
GRID_CS = (Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(5, 3))
GRID_LEADS = (Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-2, 3))


def low_degree_grid():
    """(p, c, the real roots of p) over degrees 1 and 2 and every c of
    GRID_CS: real roots from GRID_ROOTS and at c itself, double roots, and
    complex pairs u +- vi, under leading coefficients of both signs."""
    for c in GRID_CS:
        roots = sorted(set(GRID_ROOTS) | {c})
        for lead in GRID_LEADS:
            for i, r in enumerate(roots):
                yield RationalPolynomial.of([-lead * r, lead]), c, {r}
                for s in roots[i:]:
                    coeffs = [lead * r * s, -lead * (r + s), lead]
                    yield RationalPolynomial.of(coeffs), c, {r, s}
            for u in (c, Fraction(0), Fraction(2), Fraction(-1, 2)):
                for v in (Fraction(1, 3), Fraction(1), Fraction(2)):
                    coeffs = [lead * (u * u + v * v), -2 * lead * u, lead]
                    yield RationalPolynomial.of(coeffs), c, set()


def test_low_degree_counts_match_the_sturm_route_on_a_grid():
    seen = set()
    for p, c, roots in low_degree_grid():
        expected = sum(1 for r in roots if r >= c)
        assert count_real_roots_geq(p, c) == expected, (p.coeffs, c)
        assert oracles.count_real_roots_geq_by_sturm(p, c) == expected, (p.coeffs, c)
        seen.add((p.degree, expected))
    assert seen == {(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}


@settings(max_examples=300, deadline=None)
@given(st.lists(rationals, max_size=2), rationals.filter(bool), rationals)
def test_low_degree_counts_match_the_sturm_route(coeffs, lead, c):
    p = RationalPolynomial.of(coeffs + [lead])
    assert count_real_roots_geq(p, c) == oracles.count_real_roots_geq_by_sturm(p, c)


def test_low_degree_counts_stay_exact_on_int_coefficients():
    # polynomials built from ints directly, whose roots sit at c = 1/3:
    # -a0 / a1 would be the float 0.333..., just below 1/3
    third = Fraction(1, 3)
    assert count_real_roots_geq(RationalPolynomial((-1, 3)), third) == 1
    assert count_real_roots_geq(RationalPolynomial((1, -3)), third) == 1
    assert count_real_roots_geq(RationalPolynomial((-1, 0, 9)), third) == 1
    assert count_real_roots_geq(RationalPolynomial((1, -6, 9)), third) == 1


def test_from_degree_three_the_sturm_chain_counts():
    # the closed form stops at degree 2: a cubic with a double root at c
    # reaches the Sturm chain, which divides that root out as often as
    # it occurs
    c = Fraction(5, 3)
    at_c = RationalPolynomial.x_minus(c)
    for rest, expected in (([-2, 1], 2), ([3, 1], 1), ([1, 0, 1], 1)):
        p = at_c * at_c * RationalPolynomial.of(rest)
        assert p.degree >= 3
        assert count_real_roots_geq(p, c) == expected, rest
        assert oracles.count_real_roots_geq_oracle(p, c) == expected, rest


def test_a_count_past_a_root_is_refused():
    # (t - 1)^2 (t - 2) has one root past 1, but the sign variations of its
    # Sturm chain at the root 1 read none
    at_one = RationalPolynomial.x_minus(1)
    p = at_one * at_one * RationalPolynomial.x_minus(2)
    for q, c, shown in ((p, 1, "1"), (p, 2, "2"), (at_one, 1, "1"),
                        (RationalPolynomial.of([]), Fraction(-1, 3), "-1/3")):
        message = f"^root counting past {shown}, a root of the polynomial$"
        with pytest.raises(DegenerateInputError, match=message):
            count_real_roots_gt(q, c)
    assert count_real_roots_gt(p, Fraction(1, 2)) == 2
    assert count_real_roots_gt(p, Fraction(3, 2)) == 1
    assert count_real_roots_gt(RationalPolynomial.of([3]), 0) == 0
    # the routes that reach it divide the roots at c out first
    assert count_real_roots_geq(p, 1) == 2
    assert oracles.count_real_roots_geq_squarefree(p, 1) == 2
    assert oracles.count_real_roots_geq_by_sturm(p, 1) == 2
    assert oracles.count_real_roots_geq_by_sturm(p, 2) == 1


# ---------------------------------------------------------------------------
# feasibility

def test_feasibility_known_cases():
    # t1 * (-1/2, 1/2) = 0 with t1 = 1 is infeasible
    rows = [[Fraction(-1, 2)], [Fraction(1, 2)], [Fraction(1)]]
    assert not has_nonneg_solution(rows, [Fraction(0), Fraction(0), Fraction(1)])
    # x1 + x2 = 1 is feasible
    assert has_nonneg_solution([[Fraction(1), Fraction(1)]], [Fraction(1)])
    # x1 = -1 is not
    assert not has_nonneg_solution([[Fraction(1)]], [Fraction(-1)])


def test_feasibility_against_bruteforce():
    rng = random.Random(606)
    for _ in range(300):
        m_, n_ = rng.randint(1, 3), rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n_)] for _ in range(m_)
        ]
        rhs = [Fraction(rng.randint(-3, 3)) for _ in range(m_)]
        assert has_nonneg_solution(rows, rhs) == oracles.feasible_bruteforce(rows, rhs)


lp_entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


@st.composite
def lp_systems(draw):
    """{A t = b}: up to four rows and columns, either with any signs on b,
    or shaped like the fixed-point check: homogeneous coordinate rows,
    zero columns for fixed vertices, and one normalisation row with b = 1."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, 4))
    if draw(st.booleans()):
        rows = [[draw(lp_entries) for _ in range(n)] for _ in range(m)]
        return rows, [draw(lp_entries) for _ in range(m)]
    n = max(n, 1)
    fixed = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    rows = [
        [Fraction(0) if j in fixed else draw(lp_entries) for j in range(n)]
        for _ in range(m)
    ]
    rows.append([Fraction(0 if j in fixed else 1) for j in range(n)])
    return rows, [Fraction(0)] * m + [Fraction(1)]


@settings(max_examples=300, deadline=None)
@given(lp_systems())
def test_feasibility_matches_simplex_and_bruteforce_oracles(system):
    # exact._phase1 is the simplex alone, with no sign presolve
    rows, rhs = system
    expected = oracles.feasible_bruteforce(rows, rhs)
    assert exact._phase1(rows, rhs) == expected
    assert has_nonneg_solution(rows, rhs) == expected


def test_feasibility_sign_certificates():
    # a homogeneous row with one sign forces its columns to zero, which
    # leaves the normalisation row without a positive entry
    rows = [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(1), Fraction(1), Fraction(0)]]
    assert not has_nonneg_solution(rows, [Fraction(0), Fraction(1)])
    # the same, with the surviving column free to carry the solution
    rows = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    assert has_nonneg_solution(rows, [Fraction(0), Fraction(1)])
    # b < 0 needs a negative entry, b > 0 a positive one
    assert not has_nonneg_solution([[Fraction(2), Fraction(0)]], [Fraction(-1)])
    assert has_nonneg_solution([[Fraction(-2), Fraction(0)]], [Fraction(-1)])
    # every column dropped: feasible exactly when b = 0
    assert has_nonneg_solution([[Fraction(1)], [Fraction(0)]], [Fraction(0), Fraction(0)])
    assert not has_nonneg_solution([[Fraction(1)], [Fraction(0)]], [Fraction(0), Fraction(1)])


def sparse_columns(rows: list) -> list:
    """The columns of dense sign rows as {row: sign} dicts of their nonzero
    entries, the form the sign presolve reads."""
    return [
        {i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows[0]))
    ]


signs = st.integers(-1, 1)
sign_systems = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(signs, min_size=n, max_size=n), min_size=m, max_size=m),
            st.lists(signs, min_size=m, max_size=m),
        )
    )
)


@settings(max_examples=400, deadline=None)
@given(sign_systems)
def test_sparse_sign_presolve_matches_the_dense_one(system):
    rows, rhs = system
    expected = oracles.sign_presolve_dense(rows, rhs)
    got = exact._sign_presolve(sparse_columns(rows), {i: b for i, b in enumerate(rhs) if b})
    assert got == expected


def test_sparse_sign_presolve_matches_the_dense_one_under_any_row_labels():
    # rows keyed by labels in shuffled order, so that the presolve's set of
    # rows is walked in an order unrelated to the dense rows'
    rng = random.Random(707)
    verdicts = set()
    for _ in range(4000):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice((-1, 0, 0, 1)) for _ in range(n)] for _ in range(m)]
        rhs = [rng.choice((-1, 0, 0, 0, 1)) for _ in range(m)]
        labels = rng.sample([f"r{i}" for i in range(9)] + list(range(9)), m)
        columns = [
            {labels[i]: row[j] for i, row in enumerate(rows) if row[j]} for j in range(n)
        ]
        expected = oracles.sign_presolve_dense(rows, rhs)
        got = exact._sign_presolve(columns, {labels[i]: b for i, b in enumerate(rhs) if b})
        assert got == expected, (rows, rhs)
        verdicts.add("certificate" if got is None else len(got) < n)
    assert verdicts == {"certificate", True, False}
