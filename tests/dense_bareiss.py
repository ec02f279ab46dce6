"""Reference integer elimination for the test oracles.

Dense fraction-free (Bareiss) forward elimination: every row below the
pivot is rescaled at every step, whether or not its pivot-column entry
is 0.  `linalg.echelon` replaced it by the pass that rescales only the
rows it touches; it is kept here as that pass's reference.
"""


def dense_echelon(rows):
    """Fraction-free (Bareiss) forward elimination of integer rows: the
    nonzero rows of an echelon form, their pivot columns and the sign of
    the row swaps.  Each step updates only the columns right of its pivot,
    and every entry stays a minor of the input, so the division by the
    previous pivot is exact (Bareiss, Math. Comp. 22, 1968)."""
    m = [list(row) for row in rows]
    pivots, sign, prev = [], 1, 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top, lead = m[r], m[r][c]
        for row in m[r + 1:]:
            factor, row[c] = row[c], 0
            for j in range(c + 1, len(top)):
                row[j] = (lead * row[j] - factor * top[j]) // prev
        prev = lead
        pivots.append(c)
    return m[:len(pivots)], pivots, sign
