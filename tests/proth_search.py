"""Reference prime search for the test oracles.

`modular_pencil._proth_primes`, the prime source of the multi-modular
oracle, yields only the primes of a table of Proth certificates; this is
the search that found them, kept as the table's reference.
"""


def proth_search():
    """Proven primes k*2^170 + 1 (k odd, k < 2^170) below 2^340, descending.

    By Proth's theorem (Crandall-Pomerance, Prime Numbers, ch. 4),
    p = k*2^m + 1 with k odd and k < 2^m is prime iff some a has
    a^((p-1)/2) = -1 mod p.  A prime p gives +-1 for every a (Euler's
    criterion), so any other value proves p composite; a candidate whose
    small bases all give 1 is skipped.
    """
    step = 1 << 170
    for k in range(step - 1, 0, -2):
        p = k * step + 1
        for a in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            x = pow(a, p >> 1, p)
            if x != 1:
                break
        if x == p - 1:
            yield p
