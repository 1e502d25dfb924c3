"""Dense matrices over GF(2^8) with Gauss–Jordan elimination.

The erasure code inverts square matrices of order up to 255: one
Vandermonde block per code length M when a generator is built, and
one M-row generator submatrix per decode loss pattern.  Elimination
therefore clears a whole pivot column per step instead of working one
element at a time:

* with numpy, the working matrix is one uint8 array; a step scales
  the pivot row through the 256×256 product table and clears the
  column with one gather-and-XOR over every row whose factor is
  nonzero;
* without numpy, rows are byte strings and every row update is one
  ``bytes.translate`` plus one wide-integer XOR
  (:func:`~repro.coding.gf256.gf_mul_xor_bytes`).

Both paths produce identical matrices.  The element-by-element loop
they replace lives on in the tests as the oracle.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.coding.backend import _MUL_MATRIX
from repro.coding.backend import _np as np
from repro.coding.gf256 import gf_dot, gf_inv, gf_mul_bytes, gf_mul_xor_bytes, gf_powers


def _eliminate_numpy(
    rows: List[List[int]], pivot_columns: int, require_full: bool
) -> Tuple[List[List[int]], int]:
    """Reduced row echelon form of *rows* over their first columns."""
    work = np.array(rows, dtype=np.uint8)
    nrows = len(rows)
    rank = 0
    for col in range(pivot_columns):
        candidates = np.flatnonzero(work[rank:, col])
        if candidates.size == 0:
            if require_full:
                raise ValueError("matrix is singular")
            continue
        pivot = rank + int(candidates[0])
        if pivot != rank:
            work[[rank, pivot]] = work[[pivot, rank]]
        lead = int(work[rank, col])
        if lead != 1:
            work[rank, col:] = _MUL_MATRIX[gf_inv(lead)][work[rank, col:]]
        factors = work[:, col].copy()
        factors[rank] = 0
        targets = np.flatnonzero(factors)
        if targets.size:
            work[targets, col:] ^= _MUL_MATRIX[factors[targets]][:, work[rank, col:]]
        rank += 1
        if rank == nrows:
            break
    return work.tolist(), rank


def _eliminate_bytes(
    rows: List[List[int]], pivot_columns: int, require_full: bool
) -> Tuple[List[List[int]], int]:
    """:func:`_eliminate_numpy` on byte-string rows, without numpy."""
    work = [bytes(row) for row in rows]
    nrows = len(work)
    rank = 0
    for col in range(pivot_columns):
        pivot = next((r for r in range(rank, nrows) if work[r][col]), None)
        if pivot is None:
            if require_full:
                raise ValueError("matrix is singular")
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pivot_row = work[rank]
        if pivot_row[col] != 1:
            pivot_row = work[rank] = gf_mul_bytes(gf_inv(pivot_row[col]), pivot_row)
        for r in range(nrows):
            factor = work[r][col]
            if factor and r != rank:
                work[r] = gf_mul_xor_bytes(work[r], factor, pivot_row)
        rank += 1
        if rank == nrows:
            break
    return [list(row) for row in work], rank


def _eliminate(
    rows: List[List[int]], pivot_columns: int, require_full: bool
) -> Tuple[List[List[int]], int]:
    """Gauss–Jordan over the first *pivot_columns* columns of *rows*.

    Returns the reduced rows and the number of pivots found.  With
    *require_full*, a column without a pivot raises ``ValueError``.
    """
    if np is not None:
        return _eliminate_numpy(rows, pivot_columns, require_full)
    return _eliminate_bytes(rows, pivot_columns, require_full)


class GFMatrix:
    """An immutable-size matrix of GF(2^8) elements."""

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        if not rows:
            raise ValueError("matrix must have at least one row")
        width = len(rows[0])
        if width == 0:
            raise ValueError("matrix must have at least one column")
        data: List[List[int]] = []
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows in matrix")
            for value in row:
                if not 0 <= value < 256:
                    raise ValueError(f"element {value!r} outside GF(2^8)")
            data.append(list(row))
        self._rows = data
        self.nrows = len(data)
        self.ncols = width

    # -- constructors -------------------------------------------------------

    @classmethod
    def _trusted(cls, rows: List[List[int]]) -> "GFMatrix":
        """Adopt *rows* (rectangular, in-field, owned) without checks."""
        matrix = cls.__new__(cls)
        matrix._rows = rows
        matrix.nrows = len(rows)
        matrix.ncols = len(rows[0])
        return matrix

    @classmethod
    def identity(cls, n: int) -> "GFMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def vandermonde(cls, nrows: int, ncols: int) -> "GFMatrix":
        """The Vandermonde matrix V[i][j] = (i+1)^j over GF(2^8).

        Evaluation points are 1..nrows (distinct, nonzero), so any
        ``ncols`` rows form an invertible square matrix — the property
        the erasure code depends on.  Requires ``nrows <= 255``.
        """
        if nrows > 255:
            raise ValueError("at most 255 distinct nonzero evaluation points exist")
        if nrows < 1 or ncols < 1:
            raise ValueError("matrix must have at least one row and one column")
        return cls._trusted([list(gf_powers(i + 1, ncols)) for i in range(nrows)])

    # -- access ----------------------------------------------------------------

    def row(self, index: int) -> List[int]:
        return list(self._rows[index])

    def rows(self) -> List[List[int]]:
        return [list(row) for row in self._rows]

    def submatrix(self, row_indices: Sequence[int]) -> "GFMatrix":
        """New matrix from the given rows (used by the decoder)."""
        return GFMatrix._trusted([list(self._rows[i]) for i in row_indices])

    def __getitem__(self, position) -> int:
        i, j = position
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GFMatrix) and self._rows == other._rows

    def __repr__(self) -> str:
        return f"GFMatrix({self.nrows}x{self.ncols})"

    # -- algebra -----------------------------------------------------------------

    def multiply(self, other: "GFMatrix") -> "GFMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        other_columns = [
            [other._rows[k][j] for k in range(other.nrows)] for j in range(other.ncols)
        ]
        return GFMatrix(
            [
                [gf_dot(row, column) for column in other_columns]
                for row in self._rows
            ]
        )

    def multiply_vector(self, vector: Sequence[int]) -> List[int]:
        if len(vector) != self.ncols:
            raise ValueError(f"vector length {len(vector)} != ncols {self.ncols}")
        return [gf_dot(row, vector) for row in self._rows]

    def inverse(self) -> "GFMatrix":
        """Gauss–Jordan inverse; raises ``ValueError`` when singular."""
        if self.nrows != self.ncols:
            raise ValueError("only square matrices have inverses")
        n = self.nrows
        augmented = [
            row + [0] * i + [1] + [0] * (n - 1 - i)
            for i, row in enumerate(self._rows)
        ]
        reduced, _ = _eliminate(augmented, n, require_full=True)
        return GFMatrix._trusted([row[n:] for row in reduced])

    def rank(self) -> int:
        """Number of pivots in the reduced row echelon form."""
        return _eliminate(self._rows, self.ncols, require_full=False)[1]

    def is_identity(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return all(
            self._rows[i][j] == (1 if i == j else 0)
            for i in range(self.nrows)
            for j in range(self.ncols)
        )
