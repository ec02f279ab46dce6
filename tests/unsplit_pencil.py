"""Reference multi-modular determinant of a polynomial matrix for the test
oracles.

The whole matrix H(lam) linearized to one pencil A + lam*B, one modular
pass per prime.  `discriminant._pencil_det` replaced it by one pass per
connected block of H's nonzero pattern; it is kept here as that split's
reference.
"""

from wingerverify.discriminant import (_linearize, _pencil_bound,
                                       _pencil_det_mod, _proth_primes)


def unsplit_pencil_det(rows):
    """Exact integer coefficients (lowest first) of det H(lam), for the
    rows of H, each the list of its coefficient rows in lam, lowest first,
    of degree 1 or 3: the rows of `hybrid_rows`, or pairs [a_i, b_i] for
    det(A + lam*B).

    The rows are bounded by `_pencil_bound`, then linearized to A + lam*B
    of the same determinant.  Its residues modulo the certified Proth
    primes are combined by the Chinese remainder theorem until the modulus
    exceeds twice the bound, so the symmetric residues are the
    coefficients; ArithmeticError if the five primes do not reach it.
    """
    half = _pencil_bound(rows)
    a, b = _linearize(rows)
    coeffs = [0] * (len(a) + 1)
    modulus = 1
    primes = _proth_primes()
    while modulus <= 2 * half:
        p = next(primes, None)
        if p is None:
            raise ArithmeticError("the coefficient bound needs more than the five "
                                  "certified primes")
        res = _pencil_det_mod(a, b, p)
        lift = pow(modulus, -1, p)
        coeffs = [x + modulus * ((r - x) * lift % p) for x, r in zip(coeffs, res)]
        modulus *= p
    return [x - modulus if x > modulus // 2 else x for x in coeffs]
