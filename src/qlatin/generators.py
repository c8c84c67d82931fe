"""Concrete building blocks: the rotation-style 2x2 sub-squares, the order-4
families built from them, and the tensor-product construction that combines
row rectangles into larger squares.

Matrix displays are transcribed as exact rationals. Grids built from a
matrix M read cell vectors off the columns of M: row i of the grid is
(|00>, |01>, |10>, |11>) . M_i.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Container, NamedTuple, Sequence

from .algebraic import sqrt_rational
from .qls_core import QLSGrid, RowQLR, check_orthonormal, verify_row_qlr
from .vectors import Coefficient, QVector, ket, tensor, vec_add, vec_scale

Matrix = tuple[tuple[Coefficient, ...], ...]
# 2x2 sub-square living inside a two-dimensional subspace of H_4
Block = tuple[tuple[QVector, QVector], tuple[QVector, QVector]]

F = Fraction


def mat(rows: Sequence[Sequence[Coefficient]]) -> Matrix:
    return tuple(tuple(r) for r in rows)


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    bt = mat_transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_is_orthonormal(m: Matrix) -> bool:
    """M^T M = I, exactly: the columns are pairwise orthogonal unit vectors."""
    return check_orthonormal(columns_as_vectors(m)) is None


def columns_as_vectors(m: Matrix) -> tuple[QVector, ...]:
    """Columns of m as vectors; a grid row (basis . M) is exactly this."""
    return tuple(QVector(col) for col in mat_transpose(m))


J1 = mat([
    (1, 0, 0, 0),
    (0, F(1, 3), F(-2, 3), F(2, 3)),
    (0, F(2, 3), F(-1, 3), F(-2, 3)),
    (0, F(2, 3), F(2, 3), F(1, 3)),
])

J2 = mat([
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, F(3, 5), F(-4, 5)),
    (0, 0, F(4, 5), F(3, 5)),
])

J3 = mat([
    (1, 0, 0, 0),
    (0, F(3, 5), F(-4, 5), 0),
    (0, F(4, 5), F(3, 5), 0),
    (0, 0, 0, 1),
])

J4 = mat([
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, F(-4, 5), F(3, 5)),
    (0, 0, F(3, 5), F(4, 5)),
])

X1 = mat([
    (0, 0, F(-12, 13), F(5, 13)),
    (0, 0, F(5, 13), F(12, 13)),
    (0, 1, 0, 0),
    (1, 0, 0, 0),
])

X2 = mat([
    (F(-4, 5), 0, F(3, 13), F(-36, 65)),
    (0, F(-4, 5), F(36, 65), F(3, 13)),
    (F(3, 5), 0, F(4, 13), F(-48, 65)),
    (0, F(3, 5), F(48, 65), F(4, 13)),
])

X3 = mat([
    (0, 1, 0, 0),
    (1, 0, 0, 0),
    (0, 0, F(-12, 13), F(5, 13)),
    (0, 0, F(5, 13), F(12, 13)),
])

X4 = mat([
    (F(3, 5), 0, F(-4, 13), F(48, 65)),
    (0, F(3, 5), F(-48, 65), F(-4, 13)),
    (F(4, 5), 0, F(3, 13), F(-36, 65)),
    (0, F(4, 5), F(36, 65), F(3, 13)),
])

X_MATRICES = (X1, X2, X3, X4)
J_MATRICES = (J1, J2, J3, J4)


def _rotation_block(e0: QVector, e1: QVector, a: Fraction) -> Block:
    """2x2 sub-square over span(e0, e1): the plane rotation with tangent a.

    cells = 1/sqrt(1+a^2) * ((e0 + a e1, -a e0 + e1), (-a e0 + e1, e0 + a e1))
    """
    norm = sqrt_rational(F(1) / (1 + a * a))
    v0 = vec_scale(vec_add(e0, vec_scale(e1, a)), norm)
    v1 = vec_scale(vec_add(vec_scale(e0, -a), e1), norm)
    return ((v0, v1), (v1, v0))


def make_alpha_basis() -> tuple[QVector, QVector, QVector, QVector]:
    """The rotated orthonormal basis (basis . J1); its first vector is |00>."""
    return columns_as_vectors(J1)


_ALPHAS = make_alpha_basis()
# the plane (e0, e1) of each rotation-block family inside H_4
_PLANES = {
    "A": (ket("00"), ket("01")),
    "B": (ket("10"), ket("11")),
    "C": _ALPHAS[:2],
    "D": _ALPHAS[2:],
}


@lru_cache(maxsize=256)
def make_block(family: str, a: Fraction) -> Block:
    """The rotation sub-square with tangent a in the plane of family A, B, C or D."""
    e0, e1 = _PLANES[family]
    return _rotation_block(e0, e1, F(a))


# quadrant layout (top-left, top-right, bottom-left, bottom-right) per index
_H_TABLE = {
    0: (("A", 0), ("B", 0), ("B", 0), ("A", 0)),
    1: (("A", 0), ("B", 0), ("B", 1), ("A", 1)),
    2: (("A", 0), ("B", 0), ("B", 0), ("A", 2)),
    3: (("C", 0), ("D", 0), ("D", 0), ("C", 0)),
    4: (("A", 0), ("B", 0), ("B", 2), ("A", 2)),
    5: (("C", 0), ("D", 0), ("D", 0), ("C", 1)),
    6: (("A", 0), ("B", 2), ("B", 3), ("A", 2)),
    7: (("C", 0), ("D", 3), ("D", 4), ("C", 1)),
    8: (("A", 2), ("B", 2), ("B", 3), ("A", 3)),
}

_HPRIME_TABLE = {
    2: (("B", 0), ("A", 0), ("A", 1), ("B", 0)),
    4: (("B", 0), ("A", 0), ("A", 1), ("B", 1)),
    6: (("B", 1), ("A", 2), ("A", 1), ("B", 0)),
    8: (("B", 1), ("A", 1), ("A", 2), ("B", 2)),
}


def _assemble_quadrants(layout, provenance: str) -> QLSGrid:
    blocks = [make_block(fam, F(a)) for fam, a in layout]
    cells = [[None] * 4 for _ in range(4)]
    for q, block in enumerate(blocks):
        bi, bj = divmod(q, 2)
        for k in range(2):
            for l in range(2):
                cells[bi * 2 + k][bj * 2 + l] = block[k][l]
    return QLSGrid(cells, provenance=provenance)


def make_H(ell: int) -> QLSGrid:
    _check_index("H", ell)
    return _assemble_quadrants(_H_TABLE[ell], f"H({ell})")


def make_Hprime(ell: int) -> QLSGrid:
    _check_index("Hprime", ell)
    return _assemble_quadrants(_HPRIME_TABLE[ell], f"Hprime({ell})")


def _coordinate_block(family: str, a: Fraction) -> QLSGrid:
    """A rotation sub-square written in its own plane's coordinates
    (e0, e1) = (|0>, |1>), which makes it a standalone order-2 grid."""
    return QLSGrid(_rotation_block(ket("0"), ket("1"), a), provenance=f"{family}({a})")


def make_V(a, b) -> RowQLR:
    a, b = F(a), F(b)
    if a == b:
        raise ValueError("the two row parameters must differ, otherwise the rows repeat")
    return RowQLR([_rotation_block(ket("0"), ket("1"), x)[0] for x in (a, b)])


def product_construct(u: RowQLR, v: RowQLR, provenance: str = "") -> QLSGrid:
    """Combine an m x n and an n x m row rectangle into an order-mn grid.

    The cell in block (i,j) at inner position (k,l) is
    u[i][(j+k) mod n] tensor v[j][(i+l) mod m]; the resulting cardinality is
    the product of the two input cardinalities.
    """
    m, n = u.rows, u.cols
    if (v.rows, v.cols) != (n, m):
        raise ValueError(
            f"shape mismatch: {m}x{n} rectangle needs a {n}x{m} partner, got {v.rows}x{v.cols}"
        )
    ru, rv = verify_row_qlr(u), verify_row_qlr(v)
    if not ru.ok:
        raise ValueError(f"first rectangle is not row-orthonormal: {ru.message}")
    if not rv.ok:
        raise ValueError(f"second rectangle is not row-orthonormal: {rv.message}")
    order = m * n
    cells = [[None] * order for _ in range(order)]
    for i in range(m):
        for j in range(n):
            for k in range(n):
                uk = u.cells[i][(j + k) % n]
                for l in range(m):
                    cells[i * n + k][j * m + l] = tensor(uk, v.cells[j][(i + l) % m])
    return QLSGrid(cells, provenance=provenance)


def make_W(a, b) -> QLSGrid:
    a, b = F(a), F(b)
    return product_construct(make_V(0, 1), make_V(a, b), provenance=f"W({a},{b})")


def y_matrices(a, b) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """The four orthonormal matrices whose columns reproduce make_W(a, b)'s
    rows; kept as an independent regression target for the product rule."""
    a, b = F(a), F(b)
    na, nb = sqrt_rational(F(1) / (1 + a * a)), sqrt_rational(F(1) / (1 + b * b))
    sa, sb = a * na, b * nb
    ma, mb = sqrt_rational(F(1) / (2 + 2 * a * a)), sqrt_rational(F(1) / (2 + 2 * b * b))
    ta, tb = a * ma, b * mb
    y1 = mat([(na, -sa, 0, 0), (sa, na, 0, 0), (0, 0, nb, -sb), (0, 0, sb, nb)])
    y2 = mat([(0, 0, nb, -sb), (0, 0, sb, nb), (na, -sa, 0, 0), (sa, na, 0, 0)])
    y3 = mat([
        (-ta, ma, tb, -mb),
        (ma, ta, -mb, -tb),
        (-ta, ma, -tb, mb),
        (ma, ta, mb, tb),
    ])
    y4 = mat([
        (ta, -ma, -tb, mb),
        (-ma, -ta, mb, tb),
        (-ta, ma, -tb, mb),
        (ma, ta, mb, tb),
    ])
    return (y1, y2, y3, y4)


def grid_from_row_matrices(matrices: Sequence[Matrix], provenance: str) -> QLSGrid:
    """Order-4 grid whose i-th row is (|00>,|01>,|10>,|11>) . matrices[i]."""
    return QLSGrid([columns_as_vectors(m) for m in matrices], provenance=provenance)


def make_W0() -> QLSGrid:
    return grid_from_row_matrices(X_MATRICES, "W0")


def wk_row_matrices(k: int) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """X1 . Jk . X1^T . Xi for i = 1..4; X1 is orthonormal so X1^T inverts it."""
    _check_index("Wk", k)
    left = mat_mul(mat_mul(X1, J_MATRICES[k - 1]), mat_transpose(X1))
    return tuple(mat_mul(left, xi) for xi in X_MATRICES)


def make_Wk(k: int) -> QLSGrid:
    return grid_from_row_matrices(wk_row_matrices(k), f"Wk({k})")


class GeneratorId(NamedTuple):
    """Parsed form of a generator name such as "H(5)", "W(5,6)" or "W0"."""

    tag: str
    params: tuple[Fraction, ...] = ()

    def canonical(self) -> str:
        if not self.params:
            return self.tag
        return f"{self.tag}({','.join(str(p) for p in self.params)})"

    def __str__(self) -> str:
        return self.canonical()


class _Generator(NamedTuple):
    arity: int
    indices: Container[int] | None  # valid integer indices, or None for rationals
    build: Callable[..., QLSGrid]


_GENERATORS = {
    **{fam: _Generator(1, None, partial(_coordinate_block, fam)) for fam in _PLANES},
    "H": _Generator(1, _H_TABLE.keys(), make_H),
    "Hprime": _Generator(1, _HPRIME_TABLE.keys(), make_Hprime),
    "W": _Generator(2, None, make_W),
    "W0": _Generator(0, None, make_W0),
    "Wk": _Generator(1, range(1, len(J_MATRICES) + 1), make_Wk),
}


def _check_index(tag: str, idx) -> None:
    valid = _GENERATORS[tag].indices
    if idx not in valid:
        raise ValueError(
            f"{tag} index {idx} out of range; expected one of {', '.join(map(str, valid))}"
        )


#: Largest size of one generator parameter: its length in characters plus
#: the magnitude of its exponent, which bounds the decimal digits of its
#: numerator and denominator. Fixed, so one name has one answer; it keeps every
#: parameter printable by str() and its value built in bounded memory.
PARAM_MAX_SIZE = 4096
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _parse_param(t: str, text: str) -> Fraction:
    """One parameter of the name `text`, refused by size before it is built."""
    exp = _EXPONENT.search(t) if len(t) <= PARAM_MAX_SIZE else None
    size = len(t) + (abs(int(exp.group(1))) if exp else 0)
    if size > PARAM_MAX_SIZE:
        raise ValueError(
            f"generator parameter of size {size} (characters plus exponent) "
            f"exceeds the bound {PARAM_MAX_SIZE}"
        )
    try:
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad parameter in generator name {text!r}: {exc}") from None


def parse_generator_id(text: str) -> GeneratorId:
    s = text.strip()
    if "(" in s:
        if not s.endswith(")"):
            raise ValueError(f"malformed generator name: {text!r}")
        tag, arglist = s[:-1].split("(", 1)
        tag = tag.strip()
        params = tuple(_parse_param(t.strip(), text) for t in arglist.split(","))
    else:
        tag, params = s, ()
    spec = _GENERATORS.get(tag)
    if spec is None:
        raise ValueError(f"unknown generator {tag!r}; expected one of {sorted(_GENERATORS)}")
    if len(params) != spec.arity:
        raise ValueError(f"generator {tag} takes {spec.arity} parameter(s), got {len(params)}")
    if spec.indices is not None:
        _check_index(tag, params[0])
    elif tag == "W" and params[0] == params[1]:
        raise ValueError("W parameters must differ")
    return GeneratorId(tag, params)


#: Largest supported m (order 4 * MAX_M). Grid size, JSON size and verify
#: time all grow polynomially in m, so one command line must not ask for more.
MAX_M = 32


def w_block(slot: int) -> str:
    """The W square that block slot i >= 1 of a diagonal may hold,
    W(2i+3, 2i+4): slot 1 (16 new classes) and each tail slot 2..m-1 have
    their own, pairwise disjoint."""
    return f"W({2 * slot + 3},{2 * slot + 4})"


#: Every block name a plan can hold, in canonical form: 49 at MAX_M = 32.
#: `_REALIZE_CACHE` keeps only these, so the planner bounds it.
_KEPT = frozenset([f"{tag}({i})" for tag in ("H", "Hprime", "Wk") for i in _GENERATORS[tag].indices]
                  + ["W0", *map(w_block, range(1, MAX_M))])
_REALIZE_CACHE: dict[str, QLSGrid] = {}


def realize_generator(gid: GeneratorId | str) -> QLSGrid:
    """The grid a generator name denotes. A name a plan can hold is built
    once per process and shared, with its verify and count caches; a hit on
    its canonical text does no parse. Any other id is built on each call.
    A GeneratorId is read through its text, so it is checked as a name is."""
    got = _REALIZE_CACHE.get(gid)
    if got is None:
        gid = parse_generator_id(str(gid))
        key = gid.canonical()
        got = _REALIZE_CACHE.get(key)
        if got is None:
            spec = _GENERATORS[gid.tag]
            got = spec.build(*(gid.params if spec.indices is None else map(int, gid.params)))
            if key in _KEPT:
                _REALIZE_CACHE[key] = got
    return got
