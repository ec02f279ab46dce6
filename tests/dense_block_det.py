"""Reference determinant of a block of the hybrid Sylvester-Bezout matrix.

The block's determinant has degree at most n, the sum of its rows'
degrees, and this pass fixes it from its n + 1 values at lam = 0, ..., n,
one integer determinant each, interpolated on integers.
`discriminant._block_det` replaced it by the pass that reads the block's
ranks at lam = 0 and at infinity and takes only the values that the
sharper bounds leave; it is kept here as that pass's reference.
"""

from wingerverify.linalg import integer_det


def _interpolate(values):
    """Integer coefficients (lowest first) of the polynomial of degree
    < len(values) whose value at x = k is values[k]; ArithmeticError if
    they are not integers.

    Newton's forward form, p(x) = sum_k c_k x(x - 1)...(x - k + 1) with
    c_k = Delta^k p(0) / k! (von zur Gathen-Gerhard, Modern Computer
    Algebra, ch. 5): level k of the forward differences is divided by k
    on the way, so it holds the Delta^k p(x) / k!, integers for an integer
    polynomial, since x^j is an integer combination of the falling
    factorials (Stirling numbers of the second kind).  The Newton form is
    then expanded by Horner's rule on integers.
    """
    newton, level = [], list(values)
    for k in range(1, len(values) + 1):
        newton.append(level[0])
        steps = [divmod(b - a, k) for a, b in zip(level, level[1:])]
        if any(r for _, r in steps):
            raise ArithmeticError("the values are not those of an integer polynomial")
        level = [q for q, _ in steps]
    coeffs = []
    for k in range(len(newton) - 1, -1, -1):  # coeffs * (x - k) + c_k
        coeffs = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += newton[k]
    return coeffs


def _block_det(rows):
    """Exact integer coefficients (lowest first, n + 1 of them) of the
    determinant of a square block of H, for its rows as `_pencil_det`
    takes them, where n is the sum of the rows' degrees len(row) - 1.
    The determinant is multilinear in the rows, so its degree is at most
    n, and its values at lam = 0, ..., n, one `integer_det` each, fix it
    through `_interpolate`."""
    n = sum(len(row) - 1 for row in rows)
    values = []
    for lam in range(n + 1):
        at = []
        for row in rows:
            acc = row[-1]
            for part in row[-2::-1]:  # Horner on the coefficient rows
                acc = [x + lam * y for x, y in zip(part, acc)]
            at.append(acc)
        values.append(integer_det(at))
    return _interpolate(values)
