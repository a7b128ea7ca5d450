"""Full-scan Smith normal form and matrix products, for tests only.

`smith_normal_form(m)` is the general elimination, with its left transform,
for any rectangular or singular integer matrix: every pivot search scans
the whole trailing block for the least (|value|, i, j), and the
divisibility sweep runs after every pivot, also a unit one.

`smith_normal_form(m, modulus=R)` runs the same elimination but replaces an
entry of the working matrix that leaves [-R, R] by its centered residue mod
R, as `hklat.lattices.smith_normal_form(m, det)` does for R = det² (for R = 1
every entry is 0 from the start, so D = 0 and U, V are identities); without the
library's two shortcuts (a unit pivot taken on sight, no sweep after it),
and with every operation on whole rows and columns where the library's
touch the trailing block only, it must reach the library's V, and
gcd(d_tt, R) must be its factors.

`det_exact(m)` is the determinant of a square m by its own Bareiss
elimination with row swaps: the oracle of the det that
`hklat.lattices.signature_of_symmetric` returns.
"""


def det_exact(m):
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def mat_mul(a, b):
    """Matrix product."""
    if not a or not b:
        return ()
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def min_pivot(a, t, rows, cols):
    """Nonzero entry of the trailing block minimizing (|value|, i, j); None if all zero."""
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            if a[i][j] != 0:
                key = (abs(a[i][j]), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
    return None if best is None else (best[1], best[2])


def smith_normal_form(m, modulus=None):
    """(U, D, V) with U·m·V = D (mod the modulus, if one is given), by the
    library's pivot rule, scanned in full."""
    rows, cols = len(m), len(m[0]) if m else 0
    a = [[0] * cols for _ in m] if modulus == 1 else [list(row) for row in m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def fold(x):
        if modulus is None or -modulus <= x <= modulus:
            return x
        return (x + modulus // 2) % modulus - modulus // 2

    def row_add(i, j, q):  # row_i += q * row_j
        a[i] = [fold(x + q * y) for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def col_add(i, j, q):  # col_i += q * col_j
        for r in range(rows):
            a[r][i] = fold(a[r][i] + q * a[r][j])
        for r in range(cols):
            v[r][i] += q * v[r][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(rows, cols):
        loc = min_pivot(a, t, rows, cols)
        if loc is None:
            break
        i, j = loc
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    row_add(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    col_add(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            culprit = next(
                (i for i in range(t + 1, rows) for j in range(t + 1, cols) if a[i][j] % a[t][t]),
                None,
            )
            if culprit is None:
                break
            row_add(t, culprit, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    d = [[a[i][j] if i == j else 0 for j in range(cols)] for i in range(rows)]
    return tuple(map(tuple, u)), tuple(map(tuple, d)), tuple(map(tuple, v))
