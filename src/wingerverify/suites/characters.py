"""The `characters` and `homology` suites: the A5 character table and the
induced sign character, read from the `characters` layer."""

from __future__ import annotations

from ..report import SYM_CUBE, SYM_CUBE_DECOMPOSITION
from ..report import run_claim


def check_characters(report, args, corruption):
    from ..characters import (A5_IRREP_LABELS, a5_table, chi_e_s5, class_count,
                             decompose, inner_product, restrict_to_a5, sym_cube)
    from ..cyclo import rational

    def orthonormal():
        table = dict(zip(A5_IRREP_LABELS, a5_table()))
        labels = list(table)
        met = class_count()  # a square table: one class per irreducible
        if met != len(labels):
            return False, f"the class representatives meet {met} of {len(labels)} classes"
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                expect = rational(1 if i == j else 0)
                if inner_product(table[a], table[b]) != expect:
                    return False, f"<{a},{b}> != {expect}"
        return True, {lbl: str(table[lbl]) for lbl in labels}
    run_claim(report, "characters-table-orthonormal",
              "assembled irreducible table of the order-60 group is orthonormal",
              orthonormal)

    def symcube():
        chi_i, chi_ip = a5_table()[1:3]
        try:
            s_i, s_ip = sym_cube(chi_i), sym_cube(chi_ip)
        except ValueError as exc:  # a power of a representative in no listed class
            return False, {"power_maps": str(exc)}
        dec = decompose(s_i)
        ok = s_i.values == s_ip.values == SYM_CUBE and dec == SYM_CUBE_DECOMPOSITION
        return ok, {"sym_cube": str(s_i), "decomposition": dec}
    run_claim(report, "characters-symcube-rank10",
              "symmetric cube of either 3-dimensional character is (10,-2,1,0,0) = I+I'+V",
              symcube)

    def restriction():
        res = restrict_to_a5(chi_e_s5())
        dec = decompose(res)
        return dec == {"I": 1, "I'": 1}, {"restricted": str(res), "decomposition": dec}
    run_claim(report, "characters-restrict-E",
              "the 6-dimensional S5 character restricts to I + I'",
              restriction)


def check_homology(report, args, corruption):
    from ..characters import (a5_table, decompose, induced_character,
                             sign_class_function, sym_cube)
    from ..perms import alternating_group_5, parse_cycles

    def hom():
        # the order-parity sign of S3 = <(123), (12)(45)>, induced; the
        # induced values are a character only if the sign is one of S3:
        # multiplicative and constant on the classes of S3
        a5 = alternating_group_5()
        s3 = a5.generated(a5.index[parse_cycles(s, 5)] for s in ("(123)", "(12)(45)"))
        sign = sign_class_function(s3)
        character = all(sign[a5.table[a][b]] == sign[a] * sign[b]
                        and sign[a5.conjugate(a, b)] == sign[a] for a in s3 for b in s3)
        chi = induced_character(s3, sign)
        dec, doubled = decompose(chi), decompose(chi + chi)
        ok = (len(s3) == 6 and character
              and chi.values == SYM_CUBE and dec == SYM_CUBE_DECOMPOSITION
              and chi.values == sym_cube(a5_table()[1]).values
              and doubled == {"V": 2, "I": 2, "I'": 2})
        witness = {"induced": str(chi), "doubled_decomposition": doubled}
        if not character:
            witness["sign_is_a_character"] = False
        return ok, witness
    run_claim(report, "homology-lattice-character",
              "the induced sign character is (10,-2,1,0,0) and doubles to "
              "V^2 + I^2 + I'^2",
              hom)
