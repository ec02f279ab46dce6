"""Each fact has one judge: the claim that reports it.

The helpers compute and return values; a fault inside one of them must
end as a `fail` of the claim that judges its result, with that claim's
own computed witness, never as an `error` or a crashed suite.  Each test
injects one fault where a helper used to raise on its own result; the
last ones give each claim that had no fault one that fails it.
"""

import copy
import json
from fractions import Fraction

import pytest

from test_exactness import exact
from wingerverify import characters, cli, covers, hurwitz, invariants, winger
from wingerverify.cli import main
from wingerverify.cyclo import rational
from wingerverify.perms import alternating_group_5
from wingerverify.report import SINGULAR_MEMBERS

def cleared(*caches):
    """Clears the caches before and after a test, so that a fault reaches
    the cached builders and does not outlive the test."""
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


@pytest.fixture
def fresh_group():
    yield from cleared(winger.reconstruct_group, winger.irregular_orbits,
                       winger.singular_point)


@pytest.fixture
def fresh_characters():
    yield from cleared(characters._class_data, characters.a5_table, characters.power_maps)


def report(argv, tmp_path, capsys):
    """Exit code and claims (by id) of one CLI run."""
    path = tmp_path / "report.json"
    code = main([*argv, "--json", str(path)])
    capsys.readouterr()
    return code, {c["id"]: c for c in json.loads(path.read_text())["claims"]}


def failing(code, claims):
    """The failing claim ids, after checking that the run has no error."""
    assert code == 1
    assert [i for i, c in claims.items() if c["status"] == "error"] == []
    assert [i for i in claims if i.startswith("suite-")] == []
    return {i for i, c in claims.items() if c["status"] == "fail"}


def test_wrong_rescaling_scalar_fails_reconstruction(fresh_group, tmp_path, monkeypatch,
                                                     capsys):
    # -M keeps the form but has det -1; only +1 is a homomorphism from A5,
    # so the 60 rescaled matrices are no group and the search claim fails
    rescale = winger._rescale

    def negated(m, gram):
        m = rescale(m, gram)
        return None if m is None else m * rational(-1)
    monkeypatch.setattr(winger, "_rescale", negated)
    code, claims = report(["orbits"], tmp_path, capsys)
    assert failing(code, claims) == {"group-reconstruction-60"}
    assert claims["group-reconstruction-60"]["witness"].startswith(
        "survivors do not form a group")


def test_det_minus_one_fails_invariance(tmp_path, monkeypatch, capsys):
    # the same sign on the 60 final matrices keeps Q, F and the form, and
    # invariance-conic-sextic-form alone sees that det 1 is lost
    matrices = cli.Corruption.matrices
    monkeypatch.setattr(cli.Corruption, "matrices",
                        lambda self: [m * rational(-1) for m in matrices(self)])
    code, claims = report(["orbits"], tmp_path, capsys)
    assert failing(code, claims) == {"invariance-conic-sextic-form"}
    witness = claims["invariance-conic-sextic-form"]["witness"]
    assert witness["count"] == 60
    assert {kind for kind, _ in witness["violations"]} == {"det"}


def patch_group(monkeypatch, **changes):
    """Makes `winger.reconstruct_group` return a shallow copy of the group
    with some attributes replaced.  The irregular orbits are built first,
    from the true group, so that only the claims reading the group itself
    see the fault."""
    group = copy.copy(winger.reconstruct_group())
    vars(group).update(changes)
    winger.irregular_orbits()
    monkeypatch.setattr(winger, "reconstruct_group", lambda: group)


def test_non_golden_trace_fails_the_trace_claim(tmp_path, monkeypatch, capsys):
    # the first order-5 and order-3 elements swap their orders: the trace
    # claim reads an order-3 matrix, of trace 0, for (12345), its label
    # falls to I', and it compares the row with the traces read
    orders = list(winger.reconstruct_group().orders)
    m5, m3 = orders.index(5), orders.index(3)
    orders[m5], orders[m3] = orders[m3], orders[m5]
    patch_group(monkeypatch, orders=orders)
    code, claims = report(["orbits"], tmp_path, capsys)
    assert failing(code, claims) == {"group-trace-character"}
    witness = claims["group-trace-character"]["witness"]
    assert witness["matched_row"] == "I'" and witness["traces"]["(12345)"] == "0"


def test_merged_classes_fail_the_class_sizes(tmp_path, monkeypatch, capsys):
    # the two classes of order-5 elements as one class of 24
    classes = list(winger.reconstruct_group().classes)
    twelves = [c for c in classes if len(c) == 12]
    merged = [c for c in classes if len(c) != 12] + [tuple(sorted(sum(twelves, ())))]
    patch_group(monkeypatch, classes=merged)
    code, claims = report(["orbits"], tmp_path, capsys)
    assert failing(code, claims) == {"group-class-sizes"}
    assert claims["group-class-sizes"]["witness"] == {"sizes": [1, 15, 20, 24]}


def keep_five_survivors(monkeypatch):
    """A rescaling that keeps only the powers of one order-5 matrix: the
    five survivors form a cyclic group."""
    group = winger.reconstruct_group()
    m5 = group.elements[group.orders.index(5)]
    powers = {m5, m5 * m5, m5 * m5 * m5, m5 * m5 * m5 * m5, m5 * m5 * m5 * m5 * m5}
    winger.reconstruct_group.cache_clear()
    rescale = winger._rescale

    def cyclic(m, gram):
        m = rescale(m, gram)
        return m if m in powers else None
    monkeypatch.setattr(winger, "_rescale", cyclic)


def test_five_survivors_fail_the_reconstruction(fresh_group, tmp_path, monkeypatch, capsys):
    # the five survivors form a group, and only the count is wrong
    keep_five_survivors(monkeypatch)
    code, claims = report(["orbits"], tmp_path, capsys)
    assert failing(code, claims) == {"group-reconstruction-60"}
    assert claims["group-reconstruction-60"]["witness"] == {"survivors": 5}


def test_five_survivors_name_the_missing_order(fresh_group, tmp_path, monkeypatch, capsys):
    # the orbits start from elements of orders 5, 3 and 2; every pencil
    # claim reads them, and ends in the error that names the first order
    # the cyclic group lacks
    keep_five_survivors(monkeypatch)
    code, claims = report(["pencil"], tmp_path, capsys)
    assert code == 3
    missing = {"type": "ReconstructionError",
               "message": "the reconstructed group of order 5 has no element of order 3"}
    assert {i: c["witness"] for i, c in claims.items() if c["status"] == "error"} == {
        i: missing for i in ("lambda-six-orbit", "lambda-ten-orbit", "lambda-fifteen-orbit",
                             "node-nondegeneracy", "base-locus-twelve-points",
                             "no-extra-singular-orbits")}


def test_concurrent_lines_fail_their_claim(tmp_path, monkeypatch, capsys):
    # line 3 through the meet of lines 0 and 1; the reconstruction, the
    # sextic and the orbits are built first, from the true lines
    rows = list(winger.six_lines())
    rows[3] = tuple(a + b for a, b in zip(rows[0], rows[1]))
    for build in (winger.reconstruct_group, winger.f_poly, winger.irregular_orbits):
        build()
    monkeypatch.setattr(winger, "six_lines", lambda: tuple(rows))
    code, claims = report(["orbits"], tmp_path, capsys)
    assert failing(code, claims) == {"lines-no-three-concurrent"}
    assert claims["lines-no-three-concurrent"]["witness"] == {"triples_checked": 20,
                                                              "triple": [0, 1, 3]}


def test_concurrent_lines_are_named_without_the_group(fresh_group, tmp_path, monkeypatch,
                                                       capsys):
    # the same lines with no cache built first: the search fails, the
    # claims that read the group are skipped in their places, and the
    # concurrency claim, which reads only the lines, names the triple
    rows = list(winger.six_lines())
    rows[3] = tuple(a + b for a, b in zip(rows[0], rows[1]))
    monkeypatch.setattr(winger, "six_lines", lambda: tuple(rows))
    code, claims = report(["orbits"], tmp_path, capsys)
    assert failing(code, claims) == {"group-reconstruction-60", "lines-no-three-concurrent"}
    assert claims["lines-no-three-concurrent"]["witness"] == {"triples_checked": 20,
                                                              "triple": [0, 1, 3]}
    # the search's precondition reads the same triple
    assert claims["group-reconstruction-60"]["witness"] == (
        "three of the six lines are concurrent: [0, 1, 3]")
    assert [(i, c["status"]) for i, c in claims.items()] == [
        ("group-reconstruction-60", "fail"), ("group-class-sizes", "skipped"),
        ("group-trace-character", "skipped"), ("invariance-conic-sextic-form", "skipped"),
        ("lines-no-three-concurrent", "fail"), ("irregular-orbit-sizes", "skipped")]
    assert all(c["witness"] == {"requires": "group-reconstruction-60"}
               for c in claims.values() if c["status"] == "skipped")


def test_swapped_orbit_keys_fail_the_orbit_claim(tmp_path, monkeypatch, capsys):
    # the 6- and 10-point orbits under each other's keys keep the sorted
    # sizes; irregular-orbit-sizes also judges which orbit has which size
    orbs = winger.irregular_orbits()
    monkeypatch.setattr(winger, "irregular_orbits", lambda: {**orbs, 6: orbs[10], 10: orbs[6]})
    code, claims = report(["orbits"], tmp_path, capsys)
    assert failing(code, claims) == {"irregular-orbit-sizes"}
    assert claims["irregular-orbit-sizes"]["witness"]["sizes"] == [6, 10, 12, 15]


def test_extra_singular_parameter_fails_smooth_evidence(fresh_group, tmp_path, monkeypatch,
                                                        capsys):
    # one conic point reports lambda = 2, one of the ten tested parameters;
    # it is then no point of the triple conic either
    singular_point = winger.singular_point
    point = next(iter(winger.irregular_orbits()[12]))

    def extra(p, f):
        return (rational(2), False) if p == point else singular_point(p, f)
    monkeypatch.setattr(winger, "singular_point", extra)
    code, claims = report(["pencil"], tmp_path, capsys)
    assert failing(code, claims) == {"no-extra-singular-orbits", "node-nondegeneracy"}
    assert claims["node-nondegeneracy"]["witness"]["triple_conic_degenerate"] is False
    # the failing witness names the orbit, the point and the lambda it hit
    witness = claims["no-extra-singular-orbits"]["witness"]
    assert witness == {"lambdas_tested": [2, 3, 5, 7, -2, -3, 9, 13, -7, 4],
                       "orbit": 12, "point": [str(c) for c in point], "lambda": "2"}


@pytest.mark.parametrize("size, claim_id", [(6, "lambda-six-orbit"), (10, "lambda-ten-orbit"),
                                            (15, "lambda-fifteen-orbit")])
def test_stray_parameter_fails_its_orbit_claim(size, claim_id, fresh_group, tmp_path,
                                               monkeypatch, capsys):
    # one orbit point reports lambda = 1/2, no published member and none of
    # the ten tested parameters; the failing witness names that point
    singular_point = winger.singular_point
    point = next(iter(winger.irregular_orbits()[size]))

    def stray(p, f):
        return (rational(1) / 2, True) if p == point else singular_point(p, f)
    monkeypatch.setattr(winger, "singular_point", stray)
    code, claims = report(["pencil"], tmp_path, capsys)
    assert failing(code, claims) == {claim_id, "node-nondegeneracy"}
    assert claims[claim_id]["witness"] == {
        "orbit": size, "values": sorted([SINGULAR_MEMBERS[size], "1/2"]),
        "point": [str(c) for c in point], "lambda": "1/2"}


def test_wrong_molien_average_fails_both_dimension_claims(tmp_path, monkeypatch, capsys):
    # a denominator without its T^3 term: the series is no longer the
    # closed form, and the Reynolds bases, computed correctly, disagree
    # with it at their first degree
    denominator = invariants._molien_denominator
    monkeypatch.setattr(invariants, "_molien_denominator",
                        lambda m: denominator(m)[:3] + [rational(0)])
    code, claims = report(["invariants"], tmp_path, capsys)
    assert failing(code, claims) == {"molien-closed-form", "reynolds-dimensions"}
    assert claims["molien-closed-form"]["witness"]["matches_closed_form"] is False
    assert set(claims["reynolds-dimensions"]["witness"]) == {"degree", "reynolds", "molien"}


def test_braid_word_leaving_the_classes_fails_its_claim(tmp_path, monkeypatch, capsys):
    # one elementary braid on slot 1 moves the order-5 element to slot 2,
    # out of the (5,2,2,2) classes; the orbit keeps what it reaches
    monkeypatch.setitem(hurwitz.GENERATOR_SETS, "weighted", (((1, False),),))
    code, claims = report(["tuples"], tmp_path, capsys)
    assert failing(code, claims) == {"braid-weighted-orbits"}
    sizes = claims["braid-weighted-orbits"]["witness"]["orbit_sizes"]
    assert sum(sizes) > 20


@pytest.fixture
def fresh_tuples():
    yield from cleared(hurwitz.order_sets, hurwitz.enumerate_tuple_classes)


def test_generation_read_from_two_slots_fails_the_class_count(fresh_tuples, tmp_path,
                                                              monkeypatch, capsys):
    # <g1, g2> is a D10 exactly when g1*g2 has order 2, so a generation
    # test that reads only g1 and g2 drops the four r = 2 classes, and two
    # published rows match no class
    is_generating = hurwitz.is_generating
    monkeypatch.setattr(hurwitz, "is_generating", lambda t: is_generating(t[:2]))
    code, claims = report(["tuples"], tmp_path, capsys)
    assert failing(code, claims) == {"tuple-classes-20", "tuple-table-rows"}
    assert claims["tuple-classes-20"]["witness"]["by_r"] == {"3": 6, "5": 10}
    assert len(claims["tuple-table-rows"]["witness"]["unmatched"]) == 2


def test_pure_braids_without_the_middle_square_fail_their_claim(tmp_path, monkeypatch,
                                                                capsys):
    # the squares on slots 1 and 3 alone split each block of ten classes
    pure = hurwitz.GENERATOR_SETS["pure"]
    monkeypatch.setitem(hurwitz.GENERATOR_SETS, "pure", (pure[0], pure[2]))
    code, claims = report(["tuples"], tmp_path, capsys)
    assert failing(code, claims) == {"braid-pure-orbits"}
    assert claims["braid-pure-orbits"]["witness"]["orbit_sizes"] == [1, 1, 1, 1, 3, 3, 5, 5]


def test_trivial_coalesced_monodromy_fails_degenerations(tmp_path, monkeypatch, capsys):
    # a class (g1, g1^-1, h, h) coalesces to the identity: n = 1, a shape
    # that degeneration-reports does not list
    classes = hurwitz.enumerate_tuple_classes("rtl")
    a5 = alternating_group_5()
    g1, _, h, _ = classes[0]
    faulty = ((g1, a5.inverse[g1], h, h),) + classes[1:]
    monkeypatch.setattr(covers, "enumerate_tuple_classes", lambda convention: faulty)
    code, claims = report(["degenerations"], tmp_path, capsys)
    assert failing(code, claims) == {"degeneration-reports"}
    assert "(1, 30, 12, 0)" in claims["degeneration-reports"]["witness"]["shapes"]


def test_wrong_subgroup_generator_fails_the_table(fresh_characters, tmp_path, monkeypatch,
                                                  capsys):
    # W induced from the cyclic group of order 5 instead of D10
    permutation_character = characters._permutation_character

    def cyclic(gens):
        return permutation_character(gens[:1] if "(25)(34)" in gens else gens)
    monkeypatch.setattr(characters, "_permutation_character", cyclic)
    code, claims = report(["characters"], tmp_path, capsys)
    assert "characters-table-orthonormal" in failing(code, claims)
    assert claims["characters-table-orthonormal"]["witness"].startswith("<")


def test_representatives_missing_a_class_fail_the_table(fresh_characters, tmp_path, monkeypatch,
                                                        capsys):
    # the identity twice: the five classes miss the involutions
    monkeypatch.setattr(characters, "A5_CLASS_REPS",
                        ("()", "()", "(123)", "(12345)", "(12354)"))
    code, claims = report(["characters"], tmp_path, capsys)
    assert "characters-table-orthonormal" in failing(code, claims)


@pytest.mark.parametrize("fault", ["non_multiplicative", "not_a_class_function"])
def test_sign_that_is_no_character_fails_homology(fault, tmp_path, monkeypatch, capsys):
    # a class function off by one sign on the 3-cycles, or a function that
    # puts the involutions' sum -3 on one involution: the latter induces
    # the same values, so only the claim's character check sees it
    a5 = alternating_group_5()
    sign_class_function = characters.sign_class_function

    def faulty(sub):
        sign = sign_class_function(sub)
        if fault == "non_multiplicative":
            return {h: -v if a5.orders[h] == 3 else v for h, v in sign.items()}
        first, *rest = sorted(h for h in sub if a5.orders[h] == 2)
        return {**sign, first: rational(-3), **{h: rational(0) for h in rest}}
    code, claims = report(["homology"], tmp_path, capsys)
    passing = claims["homology-lattice-character"]["witness"]
    monkeypatch.setattr(characters, "sign_class_function", faulty)
    code, claims = report(["homology"], tmp_path, capsys)
    assert failing(code, claims) == {"homology-lattice-character"}
    witness = claims["homology-lattice-character"]["witness"]
    assert witness["sign_is_a_character"] is False
    if fault == "not_a_class_function":
        assert witness == {**passing, "sign_is_a_character": False}


def test_representatives_repeating_a_class_fail_the_table(fresh_characters, tmp_path,
                                                           monkeypatch, capsys):
    # (12345) twice: both 5-cycle classes have 12 elements, so the sizes
    # alone do not see the missing class (12354); the symmetric cube needs
    # the class of the square of (12345), which no representative names
    monkeypatch.setattr(characters, "A5_CLASS_REPS",
                        ("()", "(12)(34)", "(123)", "(12345)", "(12345)"))
    code, claims = report(["characters"], tmp_path, capsys)
    assert failing(code, claims) == {"characters-table-orthonormal",
                                     "characters-symcube-rank10"}
    assert claims["characters-table-orthonormal"]["witness"] == (
        "the class representatives meet 4 of 5 classes")
    assert claims["characters-symcube-rank10"]["witness"] == {
        "power_maps": "the square of (12345) lies in no listed class"}


def test_coalesced_monodromy_of_negative_genus_fails_degenerations(tmp_path, monkeypatch,
                                                                   capsys):
    # (g1, g2, h, h) coalesces to the identity while <g1, g2> is all of
    # A5: Riemann-Hurwitz gives the component genus -20, a shape the
    # claim rejects
    classes = hurwitz.enumerate_tuple_classes("rtl")
    g1, g2, h, _ = classes[0]
    faulty = ((g1, g2, h, h),) + classes[1:]
    monkeypatch.setattr(covers, "enumerate_tuple_classes", lambda convention: faulty)
    code, claims = report(["degenerations"], tmp_path, capsys)
    assert failing(code, claims) == {"degeneration-reports"}
    assert "(1, 30, 1, -20)" in claims["degeneration-reports"]["witness"]["shapes"]
    genera = report(["covers"], tmp_path, capsys)[1]["riemann-hurwitz-genera"]
    assert genera["status"] == "pass"
    assert genera["witness"]["genera"] == {"60,{5,2,2,2}": 10, "3,12x{3}": 10,
                                           "10,{5,2,2}": 0, "60,{5,2,5}": 4}


# -- a fault for each claim that had none ------------------------------------------

def _merge_first_two(orbits):
    return [orbits[0] | orbits[1], *orbits[2:]]


# claim -> (suite, module, name, the fault as a wrapper of the original, the
# claims that the fault fails)
CLAIM_FAULTS = {
    "order-sets": (
        "tuples", hurwitz, "order_sets",
        lambda order_sets: lambda: {**order_sets(), 2: order_sets()[2][1:]},
        {"order-sets", "involution-factorizations"}),
    "pair-orbits-free-6": (
        "tuples", hurwitz, "pair_orbits",
        lambda pair_orbits: lambda: _merge_first_two(pair_orbits()),
        {"pair-orbits-free-6"}),
    "involution-factorizations": (
        "tuples", hurwitz, "involution_factorizations",
        lambda factorizations: lambda h: factorizations(h) - {min(factorizations(h))},
        {"involution-factorizations"}),
    "alpha-values": (
        "covers", covers, "alpha_value",
        lambda alpha_value: lambda k: alpha_value(k) + (k == 3),
        {"alpha-values"}),
    "signature-unique": (
        "covers", covers, "signature_solutions",
        lambda solutions: lambda: solutions() + [(1, (2,))],
        {"signature-unique"}),
    "riemann-hurwitz-genera": (
        "covers", covers, "riemann_hurwitz_genus",
        lambda genus: lambda n, orders: genus(n, orders) + (n == 10),
        {"riemann-hurwitz-genera"}),
    "binary-icosahedral": (
        "binary", covers, "binary_icosahedral_group",
        lambda group: lambda: group() - {covers.Quaternion(-1, 0, 0, 0)},
        {"binary-icosahedral"}),
}


@pytest.fixture
def fresh_tuple_classes():
    # a fault in `order_sets` must neither reach nor outlive the cached classes
    yield from cleared(hurwitz.enumerate_tuple_classes)


@pytest.mark.parametrize("claim_id", CLAIM_FAULTS)
def test_fault_fails_its_claim(claim_id, fresh_tuple_classes, tmp_path, monkeypatch,
                               capsys):
    suite, module, name, fault, want = CLAIM_FAULTS[claim_id]
    passing = report([suite], tmp_path, capsys)[1][claim_id]
    assert passing["status"] == "pass"
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    code, claims = report([suite], tmp_path, capsys)
    assert failing(code, claims) == want
    witness = claims[claim_id]["witness"]
    assert witness != passing["witness"]
    assert all(exact(claims[i]["witness"]) for i in want)


# -- a fault for each failing witness that no other fault reaches -----------------

def _two_of_a_five_cycle(factorizations):
    """An involution answered by two factorizations of a 5-cycle, whose
    factors do not commute."""
    orders, five = alternating_group_5().orders, hurwitz.order_sets()[5][0]
    return lambda h: (set(sorted(factorizations(five))[:2]) if orders[h] == 2
                      else factorizations(h))


def _last_pair_reversed(factorizations):
    """An element of order 3 answered with its last factorization reversed,
    a factorization of its inverse and so outside the cyclic orbit."""
    orders = alternating_group_5().orders

    def fault(h):
        fac = factorizations(h)
        if orders[h] != 3:
            return fac
        last = max(fac)
        return fac - {last} | {last[::-1]}
    return fault


# failing witness key -> (the fault as a wrapper of
# `hurwitz.involution_factorizations`, the witness)
FACTORIZATION_FAULTS = {
    "noncommuting": (_two_of_a_five_cycle, {"r": 2, "noncommuting": True}),
    "orbit_size": (_last_pair_reversed, {"r": 3, "orbit_size": 3}),
}


@pytest.mark.parametrize("key", FACTORIZATION_FAULTS)
def test_factorization_fault_gives_its_witness(key, tmp_path, monkeypatch, capsys):
    fault, witness = FACTORIZATION_FAULTS[key]
    monkeypatch.setattr(hurwitz, "involution_factorizations",
                        fault(hurwitz.involution_factorizations))
    code, claims = report(["tuples"], tmp_path, capsys)
    assert failing(code, claims) == {"involution-factorizations"}
    assert claims["involution-factorizations"]["witness"] == witness


def test_non_integral_genus_fails_with_an_exact_witness(tmp_path, monkeypatch, capsys):
    # a Fraction genus reaches the JSON report as a string, not as a crash
    genus = covers.riemann_hurwitz_genus
    monkeypatch.setattr(covers, "riemann_hurwitz_genus",
                        lambda n, orders: genus(n, orders) + Fraction(1, 2) * (n == 3))
    code, claims = report(["covers"], tmp_path, capsys)
    assert failing(code, claims) == {"riemann-hurwitz-genera"}
    assert claims["riemann-hurwitz-genera"]["witness"]["genera"]["3,12x{3}"] == "21/2"
