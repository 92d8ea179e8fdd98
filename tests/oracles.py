"""Independent reference implementations used to cross-check the package.

Nothing here imports cychom's reduction code: the Smith form below is a
plain dense Gaussian-style elimination, determinants use the Bareiss
fraction-free scheme, and determinantal divisors come straight from gcds
of minors.  Slow, simple, and written separately on purpose.
"""

from math import gcd


def dense_smith_diagonal(rows):
    """Invariant factors (nonneg, divisibility chain) of a dense int matrix."""
    M = [list(r) for r in rows]
    m = len(M)
    n = len(M[0]) if m else 0
    diag = []
    top = 0
    while top < min(m, n):
        # pick the smallest nonzero entry in the remaining block
        pivot = None
        for i in range(top, m):
            for j in range(top, n):
                v = abs(M[i][j])
                if v and (pivot is None or v < pivot[0]):
                    pivot = (v, i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        M[top], M[pi] = M[pi], M[top]
        for row in M:
            row[top], row[pj] = row[pj], row[top]
        p = M[top][top]
        done = True
        for i in range(top + 1, m):
            q = M[i][top] // p
            if q:
                for j in range(top, n):
                    M[i][j] -= q * M[top][j]
            if M[i][top]:
                done = False
        for j in range(top + 1, n):
            q = M[top][j] // p
            if q:
                for i in range(top, m):
                    M[i][j] -= q * M[i][top]
            if M[top][j]:
                done = False
        if not done:
            continue
        # the pivot must divide the rest of the block; if not, fold the
        # offending row in and restart this pivot
        bad = None
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if M[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(top, n):
                M[top][j] += M[bad][j]
            continue
        diag.append(abs(p))
        top += 1
    return diag


def determinant(rows):
    """Exact integer determinant (Bareiss)."""
    M = [list(r) for r in rows]
    n = len(M)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def determinantal_divisors(rows, up_to=None):
    """gcd of all k x k minors for k = 1..up_to (0 entries meaning no minor)."""
    from itertools import combinations

    m = len(rows)
    n = len(rows[0]) if m else 0
    limit = min(m, n) if up_to is None else min(up_to, m, n)
    out = []
    for k in range(1, limit + 1):
        g = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                minor = determinant([[rows[i][j] for j in cs] for i in rs])
                g = gcd(g, minor)
        out.append(g)
    return out


def invariant_factors_via_divisors(rows):
    """Smith diagonal from determinantal divisors: d_k / d_{k-1}."""
    divisors = determinantal_divisors(rows)
    facs = []
    prev = 1
    for d in divisors:
        if d == 0:
            break
        facs.append(d // prev)
        prev = d
    return facs


def quotient_invariants(num_generators, relation_columns):
    """Invariants of Z^n modulo the given relation columns (dense lists)."""
    if num_generators == 0:
        return 0, []
    if not relation_columns:
        return num_generators, []
    rows = [
        [col[i] for col in relation_columns] for i in range(num_generators)
    ]
    diag = dense_smith_diagonal(rows)
    facs = [d for d in diag if d > 1]
    free = num_generators - len(diag)
    return free, facs


def koszul_hc_relations(m, i):
    """Relation columns presenting HC_{2i}(Z/m) on generators e_0..e_i.

    The normalized mixed complex of the Koszul model Lambda(e), de = m, has
    basis y^[k] (degree 2k) and e*y^[k] (degree 2k + 1), with
    b(e*y^[k]) = m*y^[k] and B(e*y^[k]) = (k+1)*y^[k+1].  In total degree 2i
    of Connes' bicomplex every chain e_s = y^[i-s] (column s) is a cycle, and
    e*y^[i-s] in column s bounds m*e_s + (i-s+1)*e_{s-1}.  So HC_{2i}(Z/m)
    is Z^{i+1} modulo the bidiagonal matrix with m on the diagonal and
    i, i-1, ..., 1 above it.
    """
    cols = []
    for s in range(i + 1):
        col = [0] * (i + 1)
        col[s] = m
        if s:
            col[s - 1] = i - s + 1
        cols.append(col)
    return cols


def tower_cokernel_relations(p, n, i):
    """Relation columns presenting coker HC_{2i}(Z/p^n) -> HC_{2i}(Z/p^{n-1}).

    The reduction lift sends e to p*e', so y^[k] goes to p^k * y'^[k] and the
    source generator e_s = y^[i-s] lands on p^{i-s} times the target's e_s.
    The cokernel is the target's generators modulo its own bidiagonal
    relations and those images.
    """
    cols = koszul_hc_relations(p ** (n - 1), i)
    for s in range(i + 1):
        col = [0] * (i + 1)
        col[s] = p ** (i - s)
        cols.append(col)
    return cols


def kron_tensor_presentation(parts):
    """Relations of a tensor product of presented groups, built as Kronecker
    products: for each factor r with relations, I (x) ... (x) R_r (x) ... (x) I,
    the blocks side by side in factor order.

    Each part has `num_generators` and `relations` (with rows, cols and an
    entries dict); returns (generators, relation columns, entries dict).
    """

    def kron(A, B):
        (a_rows, a_cols, a_entries), (b_rows, b_cols, b_entries) = A, B
        entries = {}
        for (i, k), a in a_entries.items():
            for (j, l), b in b_entries.items():
                entries[(i * b_rows + j, k * b_cols + l)] = a * b
        return a_rows * b_rows, a_cols * b_cols, entries

    gens = 1
    for P in parts:
        gens *= P.num_generators
    entries = {}
    cols = 0
    for r, P in enumerate(parts):
        if P.relations.cols == 0:
            continue
        M = None
        for s, Q in enumerate(parts):
            n = Q.num_generators
            if s == r:
                piece = (P.relations.rows, P.relations.cols, P.relations.entries)
            else:
                piece = (n, n, {(i, i): 1 for i in range(n)})
            M = piece if M is None else kron(M, piece)
        for (i, j), v in M[2].items():
            entries[(i, cols + j)] = v
        cols += M[1]
    return gens, cols, entries
