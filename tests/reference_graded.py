"""Block-layout grading of so(h): the test oracle for ``twodirac.graded``.

Slices an (n+4) x (n+4) matrix along 2 | n | 2 into the six named blocks of
[[A, Z^T, W], [X, B, -Z], [Y, -X^T, -A^T]] and reads each block's grade from
``GRADE``.  It never uses the grading element or the mirror map, so it
shares no route with the entrywise grading it checks.  Its membership test
conjugates each block basis matrix by two dense products with g and the
adjugate inverse of g, where ``graded`` uses outer products and H g^T H.
Its sampler assembles the six drawn blocks with ``join``, where ``graded``
writes the rows directly.

``closure_flags`` is the dense form of the grade test that
``graded.closure_flags`` evaluates on the products' supports: each stacked
product is masked by its tiled off-grade mask as a full matrix.
"""

from itertools import product

from twodirac.graded import ENTRY_HI, ENTRY_LO, GRADES, grade_mask
from twodirac.linalg import (Matrix, block, hstack, inverse, masked, submatrix,
                             vstack, zeros)

GRADE = {"Y": -2, "X": -1, "A": 0, "B": 0, "Z": 1, "W": 2}
SKEW = ("B", "Y", "W")


def shapes(n):
    return {"A": (2, 2), "B": (n, n), "X": (n, 2), "Y": (2, 2), "Z": (n, 2),
            "W": (2, 2)}


def join(n, blocks):
    """The matrix with the given blocks, all others zero."""
    b = {k: blocks.get(k, zeros(*shape)) for k, shape in shapes(n).items()}
    return block([[b["A"], b["Z"].transpose(), b["W"]],
                  [b["X"], b["B"], -b["Z"]],
                  [b["Y"], -b["X"].transpose(), -b["A"].transpose()]])


def split(m, n):
    """The six blocks of m; ValueError unless m has the layout above."""
    if m.shape != (n + 4, n + 4):
        raise ValueError("wrong shape")
    b = {"A": submatrix(m, 0, 2, 0, 2), "B": submatrix(m, 2, n + 2, 2, n + 2),
         "X": submatrix(m, 2, n + 2, 0, 2), "Y": submatrix(m, n + 2, n + 4, 0, 2),
         "Z": -submatrix(m, 2, n + 2, n + 2, n + 4),
         "W": submatrix(m, 0, 2, n + 2, n + 4)}
    if join(n, b) != m or any(b[k].transpose() != -b[k] for k in SKEW):
        raise ValueError("not in the orthogonal algebra")
    return b


def project(m, n, i):
    """Keep the blocks of grade i."""
    return join(n, {k: v for k, v in split(m, n).items() if GRADE[k] == i})


def grade_space(n, i):
    """One matrix per free entry of each block of grade i."""
    out = []
    for name, (rows, cols) in shapes(n).items():
        for a in range(rows):
            for c in range(cols):
                if GRADE[name] != i or (name in SKEW and a >= c):
                    continue
                unit = [[0] * cols for _ in range(rows)]
                unit[a][c] = 1
                if name in SKEW:
                    unit[c][a] = -1
                out.append(join(n, {name: Matrix(unit)}))
    return out


def conjugation_keeps_grades(g, n, must_vanish):
    """Does g E g^-1 have a zero grade-j part for every grade-i basis matrix
    E and every (i, j) with ``must_vanish(i, j)``?"""
    g_inv = inverse(g)
    grades = sorted(set(GRADE.values()))
    return all(project(g @ e @ g_inv, n, j).is_zero()
               for i in grades for e in grade_space(n, i)
               for j in grades if must_vanish(i, j))


def random_element(n, rng):
    """The matrix of a seeded element: the blocks A, B, X, Y, Z, W drawn in
    this order, row by row, a skew block above its diagonal only."""
    def rnd(r, c):
        return Matrix([[rng.randint(ENTRY_LO, ENTRY_HI) for _ in range(c)]
                       for _ in range(r)])

    def rnd_skew(k):
        rows = [[0] * k for _ in range(k)]
        for a in range(k):
            for b in range(a + 1, k):
                v = rng.randint(ENTRY_LO, ENTRY_HI)
                rows[a][b] = v
                rows[b][a] = -v
        return Matrix(rows)

    return join(n, {"A": rnd(2, 2), "B": rnd_skew(n), "X": rnd(n, 2),
                    "Y": rnd_skew(2), "Z": rnd(n, 2), "W": rnd_skew(2)})


def closure_flags(n, bases):
    """The grade pairs (i, j) whose stacked product
    L_ij = vstack(grade-i basis) @ hstack(grade-j basis) has a nonzero
    entry off grade i + j, under the tiled mask of the other grades; with
    (i, j) flagged, (j, i) is flagged too."""
    k = n + 4
    ones = Matrix([[1] * k] * k)
    flagged = set()
    for i, j in product(GRADES, repeat=2):
        prod = vstack(*(e.mat for e in bases[i])) @ hstack(*(e.mat for e in bases[j]))
        off = ones - grade_mask(n, i + j) if i + j in GRADES else ones
        if not masked(prod, block([[off] * len(bases[j])] * len(bases[i]))).is_zero():
            flagged |= {(i, j), (j, i)}
    return frozenset(flagged)
