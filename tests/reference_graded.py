"""Block-layout grading of so(h): the test oracle for ``twodirac.graded``.

Slices an (n+4) x (n+4) matrix along 2 | n | 2 into the six named blocks of
[[A, Z^T, W], [X, B, -Z], [Y, -X^T, -A^T]] and reads each block's grade from
``GRADE``.  It never uses the grading element or the mirror map, so it
shares no route with the entrywise grading it checks.  Its membership test
conjugates each block basis matrix by two dense products with g and the
adjugate inverse of g, where ``graded`` uses outer products and H g^T H.
"""

from twodirac.linalg import Matrix, block, inverse, submatrix, zeros

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
