from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

import cyclo_loops
from cyclo_rref import cyclo_kernel, cyclo_rref
from fraction_rref import null_space
from wingerverify.cli import Corruption
from wingerverify.cyclo import _numerators, make, rational, zeta
from wingerverify.invariants import (_eigenbasis, _extra_generators, _molien_denominator,
                                     _monomial_action, _monomial_tables, _orbit_sums,
                                     _series_reciprocal, contains_up_to_scalar,
                                     molien_closed_form, molien_series, reynolds_basis)
from wingerverify.linalg import Matrix
from wingerverify.perms import finite_group
from wingerverify.polys import Poly3, Substitution, _from_numerators, monomials_of_degree
from wingerverify.winger import f_poly, q_poly, reconstruct_group


def mats():
    return reconstruct_group().elements


def test_molien_matches_closed_form():
    series = molien_series(mats(), 31)
    assert series == molien_closed_form(31)


def test_molien_closed_form_matches_sympy_series():
    # the counted coefficients against sympy's expansion of the quotient
    t = sympy.Symbol("t")
    quotient = (1 + t**15) / ((1 - t**2) * (1 - t**6) * (1 - t**10))
    expansion = sympy.series(quotient, t, 0, 31).removeO()
    assert molien_closed_form(31) == [expansion.coeff(t, k) for k in range(31)]


def test_molien_low_coefficients():
    series = molien_series(mats(), 16)
    assert series[0] == 1
    assert series[1] == 0
    assert series[2] == 1
    assert series[6] == 2
    assert series[15] == 1
    assert all(series[k] == 0 for k in range(1, 15, 2))


def test_molien_rejects_non_groups():
    # the average over a non-group is no integer series, so the closed-form
    # comparison rejects it; the Reynolds bases refuse the list
    bad = [Matrix.identity(3), Matrix.diagonal([1, 1, 2])]
    series = molien_series(bad, 3)  # the mean of 1, 3, 6 and 1, 4, 11
    assert series == [1, Fraction(7, 2), Fraction(17, 2)]
    assert series != molien_closed_form(3)
    with pytest.raises(ValueError):
        reynolds_basis(bad, 2)


def molien_per_element(mats, nterms):
    """The Molien average with one series reciprocal per matrix."""
    total = [rational(0)] * nterms
    for m in mats:
        rec = _series_reciprocal(_molien_denominator(m), nterms)
        total = [t + r for t, r in zip(total, rec)]
    return [c / len(mats) for c in total]


@pytest.mark.parametrize("spec", [None, "matrix:3"])
def test_molien_by_denominator_matches_the_per_element_sum(spec):
    # the group's 60 matrices share 5 denominators; one corrupted entry
    # makes a sixth, and the weighted sum must still be the plain average
    group = Corruption(spec).matrices()
    assert len({tuple(_molien_denominator(m)) for m in group}) == (5 if spec is None else 6)
    assert molien_series(group, 31) == molien_per_element(group, 31)


# Q[x, t] with x standing for zeta; Phi5 is monic in x, so the remainder
# by it is the canonical form modulo Phi5
RING, X, T = sympy.ring("x, t", sympy.QQ)
PHI5 = X**4 + X**3 + X**2 + X + 1


def in_ring(c):
    return sum((sympy.QQ(q.numerator, q.denominator) * X**i
                for i, q in enumerate(c.coefficients())), RING.zero)


field_elements = st.builds(lambda nums, den: make([Fraction(n, den) for n in nums]),
                           st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                           st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(st.lists(field_elements, min_size=9, max_size=9))
def test_molien_denominator_matches_sympy(entries):
    # oracle: sympy's determinant of I - t*M over Q[x, t], reduced mod Phi5
    rows = [[int(i == j) - T * in_ring(entries[3 * i + j]) for j in range(3)]
            for i in range(3)]
    want = DomainMatrix(rows, (3, 3), RING.to_domain()).det().rem(PHI5)
    got = _molien_denominator(Matrix(entries))
    assert sum((in_ring(c) * T**k for k, c in enumerate(got)), RING.zero) == want


def test_reynolds_dims_match_molien():
    series = molien_series(mats(), 13)
    for d in range(13):
        assert len(reynolds_basis(mats(), d)) == series[d], d


def test_degree_2_and_6_spaces():
    b2 = reynolds_basis(mats(), 2)
    assert len(b2) == 1
    assert contains_up_to_scalar(b2, q_poly())
    assert reynolds_basis(mats(), 3) == []
    b6 = reynolds_basis(mats(), 6)
    assert len(b6) == 2
    assert contains_up_to_scalar(b6, q_poly() ** 3)
    assert contains_up_to_scalar(b6, f_poly())
    assert not contains_up_to_scalar(b6, q_poly() * q_poly())


def test_span_is_over_the_cyclotomic_field():
    # the basis is rational, but its span is taken over Q(zeta_5)
    b6 = reynolds_basis(mats(), 6)
    assert contains_up_to_scalar(b6, zeta() * q_poly() ** 3)
    assert contains_up_to_scalar(b6, q_poly() ** 3 + zeta() ** 2 * f_poly())
    for k in range(4):  # every coordinate on 1, zeta, zeta^2, zeta^3 counts
        outside = q_poly() ** 3 + zeta() ** k * q_poly() * q_poly()
        assert not contains_up_to_scalar(b6, outside)
    assert not contains_up_to_scalar([], zeta() * q_poly() ** 3)


def plain_average(mat_list, expo):
    """Oracle: (1/len) * sum of mono o g over the list, one act per element."""
    mono = Poly3.monomial(expo, 1)
    acc = Poly3.zero()
    for m in mat_list:
        acc = acc + mono.act(m)
    return acc * Fraction(1, len(mat_list))


def plain_basis(mat_list, d):
    """Oracle: the Q(zeta_5) RREF of the plain averages of every degree-d
    monomial."""
    monos = monomials_of_degree(d)
    rows = [[cyclo_loops.coefficient(p, e) for e in monos]
            for p in (plain_average(mat_list, expo) for expo in monos)]
    reduced, pivots = cyclo_rref(rows)
    return [Poly3(dict(zip(monos, reduced[r]))) for r in range(len(pivots))]


def test_low_degree_bases_match_plain_average():
    for d in range(7):
        assert reynolds_basis(mats(), d) == plain_basis(mats(), d), d


def orbit_polys(monomial_mats, monos):
    """The orbit sums of `_orbit_sums` as Poly3, for the elements of N."""
    den, sums = _orbit_sums(_monomial_tables(monomial_mats), monos)
    return [_from_numerators(den, p) for p in sums]


def cyclo_kernel_basis(mat_list, d):
    """Oracle: the invariants from the kernel of g - 1 taken over
    Q(zeta_5), not over Q, canonicalised by the Q(zeta_5) RREF."""
    group = finite_group(mat_list)
    actions = [_monomial_action(m) for m in group.elements]
    sub = [n for n, action in enumerate(actions) if action is not None]
    monos = monomials_of_degree(d)
    sums = orbit_polys([group.elements[n] for n in sub], monos)
    rows = []
    for g in _extra_generators(group, sub):
        subst = Substitution(group.elements[g])
        moved = [subst.apply(p) + p * -1 for p in sums]
        rows.extend([cyclo_loops.coefficient(q, e) for q in moved] for e in monos)
    fixed = [sum((p * c for c, p in zip(vec, sums)), Poly3.zero())
             for vec in cyclo_kernel(rows, len(sums))]
    reduced, pivots = cyclo_rref([[cyclo_loops.coefficient(f, e) for e in monos] for f in fixed])
    return [Poly3(dict(zip(monos, reduced[r]))) for r in range(len(pivots))]


def test_rational_kernels_match_cyclotomic_kernels():
    # the group is Galois-stable, so the kernels over Q lose no dimension
    for d in list(range(13)) + [15]:
        assert reynolds_basis(mats(), d) == cyclo_kernel_basis(mats(), d), d


def test_bases_match_molien_and_a_generating_pair():
    # a generating pair found by search, not the monomial subgroup plus one
    group = reconstruct_group()
    pair = next((a, b) for a in range(len(group)) for b in range(a)
                if len(group.generated((a, b))) == len(group))
    series = molien_series(mats(), 16)
    for d in list(range(13)) + [15]:
        basis = reynolds_basis(mats(), d)
        assert len(basis) == series[d], d
        for p in basis:
            assert all(p.act(group.elements[g]) == p for g in pair), d


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10), st.permutations(range(60)))
def test_shuffled_order_gives_same_basis(d, order):
    # the element order picks N's orbit representatives and the extra generators
    shuffled = [mats()[i] for i in order]
    assert reynolds_basis(shuffled, d) == reynolds_basis(mats(), d)


def klein_conjugate(entries):
    """p K p^-1 for the diagonal sign changes K and the 3x3 matrix p of
    the nine entries."""
    p = Matrix(entries)
    return [p * Matrix.diagonal(signs) * p.inverse()
            for signs in ([1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1])]


def test_klein_group_without_monomial_elements():
    # conjugated diagonal sign changes: N = {I}, so two extra generators
    klein = klein_conjugate([1, 1, 0, 0, 1, 1, 1, 0, 1])
    assert sum(_monomial_action(m) is not None for m in klein) == 1
    dims = []
    for d in range(5):
        basis = reynolds_basis(klein, d)
        assert basis == plain_basis(klein, d), d
        dims.append(len(basis))
    assert dims == [1, 0, 3, 1, 6]


# invertible integer matrices with entries in -3..3
CONJUGATORS = st.lists(st.integers(-3, 3), min_size=9, max_size=9).filter(
    lambda entries: not Matrix(entries).det().is_zero())


@settings(max_examples=15, deadline=None)
@given(CONJUGATORS)
@example([3, 0, 0, 2, 0, 3, -2, -3, 0])  # wrong at d = 2 without the scaling
def test_conjugated_klein_groups_match_plain_average(entries):
    # mostly N = {I} and two extra generators, each with images over its
    # own denominators, which must be scaled per generator
    klein = klein_conjugate(entries)
    for d in range(4):
        assert reynolds_basis(klein, d) == plain_basis(klein, d), d


def test_irrational_invariant_is_refused():
    # {I, M} is monomial, so N is the whole group and there is no extra
    # generator; the orbit sum z0 + zeta z1 of z0 is no rational form
    m = Matrix.from_rows([[0, zeta(), 0], [zeta().inv(), 0, 0], [0, 0, 1]])
    group = [Matrix.identity(3), m]
    assert all(_monomial_action(g) is not None for g in group)
    for d in (1, 2):
        with pytest.raises(ValueError, match="not rational"):
            reynolds_basis(group, d)


def test_eigenbasis_diagonalizes_every_involution():
    # g P = P D with D = diag(+-1) and P invertible; -I and the sign
    # changes reach the rank-0 and rank-1 kernels of g - I and g + I
    group = reconstruct_group()
    involutions = [group.elements[g] for g in range(len(group)) if group.orders[g] == 2]
    signs = [Matrix.diagonal(s) for s in ([-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1])]
    for g in involutions + signs:
        basis, first = _eigenbasis(g)
        assert not basis.det().is_zero(), g
        assert g * basis == basis * Matrix.diagonal([1] * first + [-1] * (3 - first)), g
        if g in involutions:
            # a +1 line and a -1 plane whose two columns each have a zero
            # entry, so two image lines have at most two terms
            assert first == 1, g
            assert sorted(sum(1 for x in basis.row(i) if x) for i in range(3))[1] <= 2, g
    for g in (Matrix.identity(3) * zeta(), Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])):
        with pytest.raises(ValueError):
            _eigenbasis(g)


def _rational_rows(rows) -> list:
    """The four integer coordinate rows, on 1, zeta, zeta^2, zeta^3, of
    each Q(zeta_5) row cleared of its denominators, zero rows dropped."""
    out = []
    for row in rows:
        _, nums = _numerators(row)
        out.extend(r for r in zip(*nums) if any(r))
    return out


def test_eigenbasis_rows_give_the_kernel_of_g_minus_1():
    # each of the 10 involutions outside N, as the one extra generator:
    # the odd coefficients of p o P cut out the same Q-kernel as p o g - p
    group = reconstruct_group()
    actions = [_monomial_action(m) for m in group.elements]
    sub = [n for n, action in enumerate(actions) if action is not None]
    outside = [g for g in range(len(group)) if group.orders[g] == 2 and g not in sub]
    assert len(outside) == 10
    degrees = {d: (monomials_of_degree(d), len(reynolds_basis(mats(), d)))
               for d in (6, 10, 12, 15)}
    sums = {d: orbit_polys([group.elements[n] for n in sub], monos)
            for d, (monos, _) in degrees.items()}
    for g in outside:
        basis, first = _eigenbasis(group.elements[g])
        by_basis, by_g = Substitution(basis), Substitution(group.elements[g])
        for d, (monos, dim) in degrees.items():
            images = [by_basis.apply(p) for p in sums[d]]
            odd = [[cyclo_loops.coefficient(q, e) for q in images]
                   for e in monos if sum(e[first:]) % 2]
            moved = [by_g.apply(p) + p * -1 for p in sums[d]]
            rows = [[cyclo_loops.coefficient(q, e) for q in moved] for e in monos]
            want = null_space(_rational_rows(rows), len(sums[d]))
            assert null_space(_rational_rows(odd), len(sums[d])) == want, (d, g)
            assert len(want) == dim, (d, g)


def test_icosahedral_extra_generator_is_one_involution():
    group = reconstruct_group()
    sub = [n for n, m in enumerate(group.elements) if _monomial_action(m) is not None]
    extra = _extra_generators(group, sub)
    assert len(sub) == 10 and len(extra) == 1 and group.orders[extra[0]] == 2


def test_group_without_involutions_outside_n_is_refused():
    # a non-monomial C3: N = {I}, and its generator has order 3, so the
    # group is not generated by N and involutions
    p = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [1, 2, 1]])
    cyclic = p * Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) * p.inverse()
    c3 = [Matrix.identity(3), cyclic, cyclic * cyclic]
    assert sum(_monomial_action(m) is not None for m in c3) == 1
    for d in (0, 2):
        with pytest.raises(ValueError, match="not an involution"):
            reynolds_basis(c3, d)
