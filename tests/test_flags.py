"""Bruhat cell models, fixed loci of diagonal actions, the traced example.

The Bruhat order is cross-checked against a breadth-first search over
length-decreasing transpositions and against the dot criterion counted
prefix by prefix (oracles.py); the closures against each permutation's dot
counts compared as tuples.  The intersection pattern
of the traced example is re-derived from chart polynomials on every call,
so the frozen values here pin down the derivation, not a lookup table.
"""

import hashlib
import random
from fractions import Fraction

import pytest

import lefscalc.fixtures as fx
import oracles
from lefscalc.complexes import CellSpace, CellularSubset, whole_space
from lefscalc.errors import DegenerateInputError
from lefscalc.euler import chi_c
from lefscalc.exact import GaussianRational
from lefscalc.flags import (
    FAMILY_NAMES,
    MAX_FLAG_N,
    block_words,
    bruhat_leq,
    derive_intersection_pattern,
    example_3_9,
    fixed_component_count,
    fixed_locus_cellspace,
    flag_cellspace,
    inversion_count,
    longest_element,
    open_cell_complement,
    perm_name,
    permutations_of,
    schubert_subset,
)


def g(x):
    return GaussianRational.of(x)


def factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# permutation combinatorics


def test_permutation_helpers():
    assert permutations_of(3)[0] == (1, 2, 3)
    assert len(permutations_of(4)) == 24
    assert inversion_count((1, 2, 3)) == 0
    assert inversion_count((3, 2, 1)) == 3
    assert longest_element(4) == (4, 3, 2, 1)
    assert perm_name((3, 1, 2)) == "312"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_matches_bfs_oracle(n):
    perms = permutations_of(n)
    for a in perms:
        for b in perms:
            assert bruhat_leq(a, b) == oracles.bruhat_leq_bfs(a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bruhat_matches_the_prefix_loop_on_all_pairs(n):
    perms = permutations_of(n)
    for a in perms:
        for b in perms:
            assert bruhat_leq(a, b) == oracles.bruhat_leq_loop(a, b)


# n = 7 and 8 lie beyond MAX_FLAG_N: they pin the width of the packed
# fields for the letters a raised cap would bring
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_bruhat_matches_the_prefix_loop_on_seeded_pairs(n):
    rng = random.Random(n)
    perms = permutations_of(n)
    outcomes = set()
    for _ in range(3000 if n <= 6 else 1000):
        a, b = rng.choice(perms), rng.choice(perms)
        # a transposition that adds inversions gives comparable pairs too
        i, j = sorted(rng.sample(range(n), 2))
        c = list(a)
        c[i], c[j] = c[j], c[i]
        for x, y in ((a, b), (a, tuple(c)), (tuple(c), a)):
            got = bruhat_leq(x, y)
            assert got == oracles.bruhat_leq_loop(x, y)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_bruhat_known_relations():
    e, w0 = (1, 2, 3), (3, 2, 1)
    for w in permutations_of(3):
        assert bruhat_leq(e, w)
        assert bruhat_leq(w, w0)
    assert not bruhat_leq((2, 1, 3), (1, 3, 2))
    assert not bruhat_leq((1, 3, 2), (2, 1, 3))
    with pytest.raises(DegenerateInputError):
        bruhat_leq((1, 2), (1, 2, 3))


# ---------------------------------------------------------------------------
# flag cell models


@pytest.mark.parametrize("n", range(1, MAX_FLAG_N + 1))
def test_flag_model_chi_is_factorial(n):
    model = flag_cellspace(n)
    assert len(model.space.cells) == factorial(n)
    assert chi_c(model.space) == factorial(n)


def test_flag_model_bounds():
    with pytest.raises(DegenerateInputError):
        flag_cellspace(0)
    with pytest.raises(DegenerateInputError):
        flag_cellspace(MAX_FLAG_N + 1)


def test_schubert_subsets():
    model = flag_cellspace(3)
    w = (2, 3, 1)
    closed = schubert_subset(model, w, closed=True)
    expected = {
        perm_name(u)
        for u in permutations_of(3)
        if oracles.bruhat_leq_bfs(u, w)
    }
    assert set(closed.members) == expected
    single = schubert_subset(model, w, closed=False)
    assert set(single.members) == {"231"}
    everything = schubert_subset(model, longest_element(3), closed=True)
    assert len(everything.members) == 6
    with pytest.raises(DegenerateInputError):
        schubert_subset(model, (1, 2), closed=True)


@pytest.mark.parametrize("n", range(1, MAX_FLAG_N + 1))
def test_every_closure_matches_the_dot_tuples(n):
    model = flag_cellspace(n)
    for w in model.perms:
        expected = oracles.schubert_members_by_dot_tuples(model, w)
        assert schubert_subset(model, w).members == expected


def test_closures_refuse_cells_outside_the_model():
    # the closure's names still pass the membership check of its space
    model = flag_cellspace(3)
    smaller = type(model)(3, flag_cellspace(2).space, model.perms)
    with pytest.raises(DegenerateInputError, match="cells not in parent"):
        schubert_subset(smaller, (2, 3, 1))


def test_open_cell_complement_chi():
    model = flag_cellspace(3)
    divisor = open_cell_complement(model)
    assert len(divisor.members) == 5
    assert chi_c(divisor) == 5
    low = open_cell_complement(model, perm=(1, 2, 3))
    assert chi_c(low) == factorial(3) - 1
    with pytest.raises(DegenerateInputError):
        open_cell_complement(model, perm=(4, 3, 2, 1))


# ---------------------------------------------------------------------------
# fixed loci of block-diagonal actions


def test_block_words_are_sorted_arrangements():
    assert block_words((2, 1)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert len(block_words((1, 1, 1))) == 6
    assert block_words((3,)) == [(0, 0, 0)]


@pytest.mark.parametrize("n", range(1, MAX_FLAG_N + 1))
def test_component_count_is_the_number_of_block_words(n):
    for blocks in compositions(n):
        assert fixed_component_count(blocks) == len(block_words(blocks))


def multinomial(n, blocks):
    out = factorial(n)
    for b in blocks:
        out //= factorial(b)
    return out


@pytest.mark.parametrize("n", range(1, MAX_FLAG_N + 1))
def test_fixed_locus_chi_is_factorial(n):
    for blocks in compositions(n):
        space = fixed_locus_cellspace(n, blocks)
        assert len(space.cells) == factorial(n)
        assert chi_c(space) == factorial(n)
        labels = {c.component for c in space.cells}
        assert len(labels) == multinomial(n, blocks)


@pytest.mark.parametrize("n", range(1, MAX_FLAG_N + 1))
def test_flag_model_is_listed_as_the_checked_build_lists_it(n):
    # the cell space is built without CellSpace.build; its cells come in
    # build's order
    space = flag_cellspace(n).space
    assert space == CellSpace.build(space.cells)
    assert space == CellSpace.build(reversed(space.cells))


@pytest.mark.parametrize("n", range(1, MAX_FLAG_N + 1))
def test_fixed_locus_is_listed_as_the_checked_build_lists_it(n):
    # the cell space is built without CellSpace.build; its cells come in
    # build's order (ids as strings, so "c10:" before "c1:")
    for blocks in compositions(n):
        space = fixed_locus_cellspace(n, blocks)
        assert space == CellSpace.build(space.cells)
        assert space == CellSpace.build(reversed(space.cells))


def _whole_spaces():
    yield fx.cp1_cellspace()
    for n in range(1, MAX_FLAG_N + 1):
        yield flag_cellspace(n).space
        for blocks in compositions(n):
            yield fixed_locus_cellspace(n, blocks)


def test_chi_of_a_whole_cell_space_is_the_sum_over_its_members():
    # chi_c reads a whole space's dims off its cells; the members of the
    # whole space, read through cell_dim, give the same sum
    for space in _whole_spaces():
        whole = sum((-1) ** space.cell_dim(c) for c in whole_space(space).members)
        assert chi_c(space) == chi_c(whole_space(space)) == whole


def test_fixed_locus_component_chis():
    space = fixed_locus_cellspace(3, (2, 1))
    for label in ("c0", "c1", "c2"):
        members = {c.ident for c in space.cells if c.component == label}
        assert chi_c(CellularSubset.of(space, members)) == 2


def test_fixed_locus_validation():
    with pytest.raises(DegenerateInputError):
        fixed_locus_cellspace(3, (2, 2))
    with pytest.raises(DegenerateInputError):
        fixed_locus_cellspace(3, (3, 0))
    with pytest.raises(DegenerateInputError):
        fixed_locus_cellspace(7, (7,))


# ---------------------------------------------------------------------------
# the traced worked example


def test_intersection_pattern_derivation():
    patterns = derive_intersection_pattern()
    assert [p.label for p in patterns] == ["c0", "c1", "c2"]
    assert [p.family for p in patterns] == list(FAMILY_NAMES)
    assert [p.contained for p in patterns] == [True, True, False]
    assert patterns[2].points == 1
    assert [p.chi() for p in patterns] == [2, 2, 1]
    # the pattern is re-derived, not memoized
    again = derive_intersection_pattern()
    assert again == patterns


def test_pattern_total_matches_divisor_chi():
    patterns = derive_intersection_pattern()
    divisor = open_cell_complement(flag_cellspace(3))
    assert sum(p.chi() for p in patterns) == chi_c(divisor)


def test_example_contributions():
    ex = example_3_9()
    assert ex.component_labels() == ["c0", "c1", "c2"]
    assert ex.plane_family_label() == "c0"
    assert ex.contribution("c0") == g(2)
    assert ex.contribution("c1") == g(2)
    assert ex.contribution("c2") == g(1)
    assert ex.total() == g(5)
    triples = ex.contributions()
    assert [t[0] for t in triples] == ["c0", "c1", "c2"]
    assert [t[1] for t in triples] == list(FAMILY_NAMES)
    with pytest.raises(DegenerateInputError):
        ex.contribution("c9")


@pytest.mark.parametrize("ratio", [Fraction(2), Fraction(-3, 4), Fraction(7, 3)])
def test_example_contributions_are_unsigned_at_every_ratio(ratio):
    # a complex model: every sign is +1, so each sphere gives the Euler
    # characteristic of its slice of the divisor, whatever the ratio
    ex = example_3_9(ratio)
    assert [ex.contribution(p.label) for p in ex.patterns] == [
        g(p.chi()) for p in ex.patterns
    ]


def test_example_components_are_spheres():
    ex = example_3_9()
    space = ex.space
    for label in ex.component_labels():
        members = {c.ident for c in space.cells if c.component == label}
        assert chi_c(CellularSubset.of(space, members)) == 2


def test_example_normal_data():
    ex = example_3_9()
    assert ex.ratio == Fraction(2)
    other = example_3_9(ratio=Fraction(7, 3))
    assert other.ratio == Fraction(7, 3)
    # the pattern does not depend on the ratio
    assert other.total() == ex.total()


def test_example_rejects_degenerate_ratios():
    with pytest.raises(DegenerateInputError):
        example_3_9(ratio=0)
    with pytest.raises(DegenerateInputError):
        example_3_9(ratio=1)


def test_example_support_is_divisor_slice():
    ex = example_3_9()
    support = set(ex.support.members)
    assert support == {"c0:d0", "c0:d2", "c1:d0", "c1:d2", "c2:v0"}


# the parent cell models, pinned: ids, dims and labels of every cell
FIXED_LOCUS_DIGESTS = {
    (2, 1, 3): "553610d06a4ca0a4827cdf6910ecb480eaa1bfea9cb9a3a8cad8b8b91c010072",
    (1, 1, 1, 1, 1, 1): "8bb0cf0fff9335281343a890d82b34443c57b2d987f1f88a0a1eebb06a65ee36",
}


def test_fixed_locus_cellspace_is_unchanged():
    cells = fixed_locus_cellspace(3, (1, 2)).cells
    assert [(c.ident, c.dim, c.component) for c in cells] == [
        (f"c{k}:1|{w}", d, f"c{k}") for k in range(3) for w, d in (("12", 0), ("21", 2))
    ]
    for blocks, digest in FIXED_LOCUS_DIGESTS.items():
        cells = fixed_locus_cellspace(6, blocks).cells
        assert len(cells) == 720
        assert hashlib.sha256(repr(cells).encode()).hexdigest() == digest
