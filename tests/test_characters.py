import pytest

from wingerverify.characters import (A5_IRREP_LABELS, CharacterError,
                                     ClassFunction, a5_table, chi_e_s5,
                                     class_sizes, decompose, induced_character,
                                     inner_product, restrict_to_a5,
                                     sign_class_function, sym_cube)
from wingerverify.cyclo import golden, rational, sqrt5
from wingerverify.perms import alternating_group_5, parse_cycles


def s3_subgroup():
    a5 = alternating_group_5()
    return a5.generated(a5.index[parse_cycles(s, 5)] for s in ("(123)", "(12)(45)"))


def test_class_sizes():
    assert class_sizes("A5") == (1, 15, 20, 12, 12)
    assert class_sizes("S5") == (1, 10, 15, 20, 20, 30, 24)


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


def test_decompose_rejects_non_characters():
    bogus = ClassFunction("A5", (1, 1, 1, 1, 0))
    with pytest.raises(CharacterError):
        decompose(bogus)


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
