"""What several property-test files draw: one builder each, given each file's own ranges."""

from fractions import Fraction
from functools import partial

from hypothesis import strategies as st

from wingerverify.cyclo import make


def field_elements(numerators, dens, min_size=1):
    """Elements of Q(zeta_5): numerators on 1, zeta, zeta^2, zeta^3 over one denominator.
    Hypothesis labels each call's `partial` by identity, so each builder's elements keep a
    label apart, as each written-out lambda did: its mutator copies values within a label."""
    build = partial(lambda nums, den: make([Fraction(n, den) for n in nums]))
    return st.builds(build, st.lists(numerators, min_size=min_size, max_size=4), dens)


# coprime denominators side by side, and numerators past 2^64
WIDE = field_elements(st.one_of(st.integers(-2, 2), st.integers(-2**70, 2**70)),
                      st.sampled_from([1, 2, 3, 5, 6, 15, 2**65 + 1]))
BOOLEANS = st.booleans()
nine_entries = partial(st.lists, min_size=9, max_size=9)  # a 3x3 matrix, row by row
triples = partial(st.lists, min_size=3, max_size=3)
