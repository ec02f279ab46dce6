from itertools import permutations

import pytest

from braid_closure import perm_inverse
from wingerverify.characters import (A5_CLASS_REPS, A5_IRREP_LABELS,
                                     S5_CLASS_REPS, CharacterError,
                                     ClassFunction, a5_table, chi_e_s5,
                                     class_sizes, decompose, induced_character,
                                     inner_product, restrict_to_a5,
                                     sign_class_function, sym_cube)
from wingerverify.cyclo import golden, rational, sqrt5
from wingerverify.perms import Perm, alternating_group_5, parse_cycles


def s3_subgroup():
    a5 = alternating_group_5()
    return a5.generated(a5.index[parse_cycles(s, 5)] for s in ("(123)", "(12)(45)"))


def test_class_sizes():
    assert class_sizes() == (1, 15, 20, 12, 12)


def test_table_dimensions_and_orthogonality():
    table = a5_table()
    dims = [chi.values[0] for chi in table]
    assert dims == [rational(d) for d in (1, 3, 3, 4, 5)]
    for i, a in enumerate(table):
        for j, b in enumerate(table):
            assert inner_product(a, b) == rational(1 if i == j else 0)


def test_golden_ratio_entries():
    table = dict(zip(A5_IRREP_LABELS, a5_table()))
    phi = golden()
    assert table["I"].values[3] == phi
    assert table["I"].values[4] == (rational(1) - sqrt5()) / 2
    # I' is the Galois mirror
    assert table["I'"].values[3] == table["I"].values[4]


def test_sym_cube_both_mirrors():
    table = dict(zip(A5_IRREP_LABELS, a5_table()))
    expect = tuple(rational(v) for v in (10, -2, 1, 0, 0))
    assert sym_cube(table["I"]).values == expect
    assert sym_cube(table["I'"]).values == expect
    assert decompose(sym_cube(table["I"])) == {"I": 1, "I'": 1, "V": 1}


def test_decompose_marks_non_characters():
    # the inner products of a non-character come back exact, as strings
    # where they are not integers; the claims judge them
    bogus = ClassFunction((1, 1, 1, 1, 0))
    dec = decompose(bogus)
    assert dec["1"] == "4/5" and dec["V"] == "1/5"
    assert dec["I"] == str(inner_product(bogus, a5_table()[1]))
    assert not all(isinstance(m, int) for m in dec.values())


def test_induced_sign_character():
    s3 = s3_subgroup()
    chi = induced_character(s3, sign_class_function(s3))
    assert chi.values == tuple(rational(v) for v in (10, -2, 1, 0, 0))


def test_induction_degree_formula():
    # degree of an induced character is [G:H] * degree
    s3 = s3_subgroup()
    triv = {h: rational(1) for h in s3}
    chi = induced_character(s3, triv)
    assert chi.values[0] == rational(10)
    assert decompose(chi)["1"] == 1  # Frobenius reciprocity with the trivial


def test_restriction_of_E():
    res = restrict_to_a5(chi_e_s5())
    assert res.values == tuple(rational(v) for v in (6, -2, 0, 1, 1))
    assert decompose(res) == {"I": 1, "I'": 1}


def test_restriction_matches_s5_conjugacy():
    # oracle: the S5 class of each A5 representative found by conjugating
    # with all 120 permutations, instead of by cycle type
    s5 = [Perm(p) for p in permutations(range(1, 6))]
    s5_reps = [parse_cycles(s, 5) for s in S5_CLASS_REPS]

    def s5_class(g):
        conjugates = {x * g * perm_inverse(x) for x in s5}
        return next(i for i, r in enumerate(s5_reps) if r in conjugates)
    chi = tuple(range(10, 17))  # distinct on every class
    want = tuple(rational(10 + s5_class(parse_cycles(s, 5))) for s in A5_CLASS_REPS)
    assert restrict_to_a5(chi).values == want
    with pytest.raises(CharacterError):
        restrict_to_a5(a5_table()[0].values)
    with pytest.raises(CharacterError):
        ClassFunction(chi)  # a class function is A5's


# -- V and W against the coset actions they were read from ------------------------


def coset_action(group, sub):
    """Left multiplication on the left cosets of `sub`, as one permutation
    of degree [G:H] per element index, the cosets numbered by their least
    representative: the construction induction replaced, kept as its
    oracle."""
    pos, reps = {}, []
    for g in range(len(group)):
        if g not in pos:
            for h in sub:
                pos[group.table[g][h]] = len(reps)
            reps.append(g)
    return [Perm(pos[group.table[g][r]] + 1 for r in reps) for g in range(len(group))]


def fixed_points(p):
    return sum(p(x) == x for x in range(1, p.degree + 1))


def test_permutation_characters_match_coset_actions():
    a5 = alternating_group_5()
    reps = [a5.index[parse_cycles(s, 5)] for s in A5_CLASS_REPS]
    d10 = a5.generated(a5.index[parse_cycles(s, 5)] for s in ("(12345)", "(25)(34)"))
    action = coset_action(a5, d10)
    assert all(p.degree == 6 for p in action)
    assert len(set(action)) == 60  # faithful
    # the action is a homomorphism
    assert all(action[a5.table[a][b]] == action[a] * action[b]
               for a in range(60) for b in range(60))
    table = dict(zip(A5_IRREP_LABELS, a5_table()))
    # V: the natural 5-point action minus trivial; W: the 6-point one
    assert table["V"].values == tuple(rational(fixed_points(a5.elements[r]) - 1)
                                      for r in reps)
    assert table["W"].values == tuple(rational(fixed_points(action[r]) - 1)
                                      for r in reps)


def test_class_function_is_immutable_and_checks_its_length():
    chi = ClassFunction((1, 2, 3, 4, 5))
    assert chi.values == tuple(map(rational, (1, 2, 3, 4, 5)))
    with pytest.raises(AttributeError):
        chi.values = (0, 0, 0, 0, 0)
    with pytest.raises(AttributeError):
        chi.extra = 1
    with pytest.raises(AttributeError):
        del chi.values
    assert chi.values == tuple(map(rational, (1, 2, 3, 4, 5)))
    for values in ((), (1, 2, 3, 4), (1, 2, 3, 4, 5, 6)):
        with pytest.raises(CharacterError):
            ClassFunction(values)
