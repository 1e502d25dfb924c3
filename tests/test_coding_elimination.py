"""Parity of the vectorized GF(2^8) elimination with the scalar oracle.

``GFMatrix.inverse`` and ``rank`` clear one whole pivot column per
step: through numpy when it imports, through byte-string row
operations otherwise.  Both paths run here on every host (the
non-numpy one is forced by monkeypatching the module's numpy handle)
and are compared with the element-by-element Gauss–Jordan loop below,
which is the oracle.  The systematic generator built per M is checked
against the old per-(M, N) construction and for the row-prefix
property its sharing across N rests on.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coding import matrix as matrix_module
from repro.coding import rs as rs_module
from repro.coding.backend import get_backend
from repro.coding.gf256 import gf_dot, gf_div, gf_inv, gf_mul
from repro.coding.matrix import GFMatrix
from repro.coding.rs import MAX_COOKED, RabinDispersal, SystematicRSCodec

PATHS = ["numpy", "bytes"]


@pytest.fixture(params=PATHS)
def path(request, monkeypatch):
    """Run the test once per elimination path."""
    if request.param == "numpy":
        if matrix_module.np is None:
            pytest.skip("numpy is not installed")
    else:
        monkeypatch.setattr(matrix_module, "np", None)
    return request.param


# -- the scalar oracle --------------------------------------------------------


def oracle_inverse(rows):
    """Element-by-element Gauss–Jordan inverse (the pre-vectorized code)."""
    n = len(rows)
    work = [
        list(row) + [1 if i == j else 0 for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        inv_pivot = gf_inv(work[col][col])
        work[col] = [gf_mul(inv_pivot, value) for value in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [
                    value ^ gf_mul(factor, pivot_value)
                    for value, pivot_value in zip(work[r], work[col])
                ]
    return [row[n:] for row in work]


def oracle_rank(rows):
    """Element-by-element forward elimination."""
    work = [list(row) for row in rows]
    nrows, ncols = len(work), len(work[0])
    rank = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, nrows) if work[r][col] != 0), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        for r in range(rank + 1, nrows):
            if work[r][col] != 0:
                factor = gf_div(work[r][col], pivot)
                work[r] = [
                    value ^ gf_mul(factor, pivot_value)
                    for value, pivot_value in zip(work[r], work[rank])
                ]
        rank += 1
        if rank == nrows:
            break
    return rank


def oracle_generator(m, n):
    """The old per-(m, n) systematic generator: V(n, m) · V_top⁻¹."""
    vandermonde = [[gf_pow_scalar(i + 1, j) for j in range(m)] for i in range(n)]
    inverse = oracle_inverse(vandermonde[:m])
    columns = [[inverse[k][j] for k in range(m)] for j in range(m)]
    return [[gf_dot(row, column) for column in columns] for row in vandermonde]


def gf_pow_scalar(a, exponent):
    result = 1
    for _ in range(exponent):
        result = gf_mul(result, a)
    return result


# -- inputs -------------------------------------------------------------------


def random_rows(rng, nrows, ncols):
    return [[rng.randrange(256) for _ in range(ncols)] for _ in range(nrows)]


def make_singular(rng, rows):
    """Overwrite one row with a combination of two others (or zero it)."""
    n = len(rows)
    target = rng.randrange(n)
    if n < 3:
        rows[target] = [0] * len(rows[0])
        return rows
    a, b = rng.sample([i for i in range(n) if i != target], 2)
    fa, fb = rng.randrange(256), rng.randrange(256)
    rows[target] = [gf_mul(fa, x) ^ gf_mul(fb, y) for x, y in zip(rows[a], rows[b])]
    return rows


def product_is_identity(left, right):
    """left · right == I, computed through the reference matmul kernel."""
    size = len(right[0])
    product = get_backend("baseline").matmul(left, [bytes(row) for row in right], size)
    return all(
        row == bytes(1 if i == j else 0 for j in range(size))
        for i, row in enumerate(product)
    )


# -- elimination parity -------------------------------------------------------


class TestInverseParity:
    @pytest.mark.parametrize("order", [1, 2, 3, 7, 16, 33, 64, 96])
    def test_random_matrix_matches_oracle(self, path, order):
        rng = random.Random(order * 7919)
        rows = random_rows(rng, order, order)
        try:
            expected = oracle_inverse(rows)
        except ValueError:
            with pytest.raises(ValueError, match="^matrix is singular$"):
                GFMatrix(rows).inverse()
            return
        assert GFMatrix(rows).inverse().rows() == expected

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=40),
        st.booleans(),
    )
    def test_small_matrices_match_oracle(self, seed, order, singular):
        rng = random.Random(seed)
        rows = random_rows(rng, order, order)
        if singular:
            rows = make_singular(rng, rows)
        for forced in PATHS:
            if forced == "numpy" and matrix_module.np is None:
                continue
            saved = matrix_module.np
            if forced == "bytes":
                matrix_module.np = None
            try:
                try:
                    expected = oracle_inverse(rows)
                except ValueError as exc:
                    with pytest.raises(ValueError) as raised:
                        GFMatrix(rows).inverse()
                    assert str(raised.value) == str(exc)
                    continue
                assert GFMatrix(rows).inverse().rows() == expected
            finally:
                matrix_module.np = saved

    @pytest.mark.parametrize("order", [128, 170, 255])
    def test_large_orders_agree_across_paths(self, monkeypatch, order):
        rng = random.Random(order)
        rows = random_rows(rng, order, order)
        with monkeypatch.context() as patch:
            patch.setattr(matrix_module, "np", None)
            via_bytes = GFMatrix(rows).inverse().rows()
        assert product_is_identity(via_bytes, rows)
        assert product_is_identity(rows, via_bytes)
        if matrix_module.np is not None:
            assert GFMatrix(rows).inverse().rows() == via_bytes

    @pytest.mark.parametrize("order", [2, 5, 64, 255])
    def test_singular_raises_same_message(self, path, order):
        rng = random.Random(order + 1)
        rows = make_singular(rng, random_rows(rng, order, order))
        if order <= 64:
            with pytest.raises(ValueError) as oracle:
                oracle_inverse(rows)
            message = str(oracle.value)
        else:
            message = "matrix is singular"
        with pytest.raises(ValueError) as raised:
            GFMatrix(rows).inverse()
        assert str(raised.value) == message

    def test_zero_column_is_singular(self, path):
        rows = [[0, 1, 2], [0, 3, 4], [0, 5, 7]]
        with pytest.raises(ValueError, match="^matrix is singular$"):
            GFMatrix(rows).inverse()

    def test_input_left_untouched(self, path):
        rows = random_rows(random.Random(5), 6, 6)
        matrix = GFMatrix(rows)
        before = matrix.rows()
        matrix.inverse()
        matrix.rank()
        assert matrix.rows() == before


class TestRankParity:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=0, max_value=3),
    )
    def test_rank_matches_oracle(self, seed, nrows, ncols, deficient):
        rng = random.Random(seed)
        rows = random_rows(rng, nrows, ncols)
        for _ in range(deficient):
            rows = make_singular(rng, rows)
        expected = oracle_rank(rows)
        saved = matrix_module.np
        try:
            assert GFMatrix(rows).rank() == expected
            matrix_module.np = None
            assert GFMatrix(rows).rank() == expected
        finally:
            matrix_module.np = saved

    @pytest.mark.parametrize("order", [100, 255])
    def test_large_rank(self, path, order):
        rng = random.Random(order)
        rows = random_rows(rng, order, order)
        assert GFMatrix(rows).rank() == order
        assert GFMatrix(make_singular(rng, rows)).rank() == order - 1


# -- the generator ------------------------------------------------------------


class TestGenerator:
    @pytest.mark.parametrize(
        "m,n",
        [(1, 1), (1, 255), (2, 3), (3, 6), (5, 8), (16, 24), (40, 60), (64, 96)],
    )
    def test_systematic_generator_matches_old_construction(self, path, m, n):
        rs_module._GENERATORS.clear()
        codec = SystematicRSCodec(m, n)
        expected = oracle_generator(m, n)
        assert codec.generator == b"".join(bytes(row) for row in expected)
        assert [list(codec.generator_row(i)) for i in range(n)] == expected

    @pytest.mark.parametrize("m", [1, 2, 7, 40, 100, 170, 255])
    def test_every_n_is_a_row_prefix_of_n_255(self, m):
        full = SystematicRSCodec(m, MAX_COOKED).generator
        for n in sorted({m, min(MAX_COOKED, m + 1), (m + MAX_COOKED) // 2}):
            assert SystematicRSCodec(m, n).generator == full[: n * m]
        top = full[: m * m]
        assert top == bytes(1 if i == j else 0 for i in range(m) for j in range(m))

    @pytest.mark.parametrize("m,n", [(1, 3), (4, 9), (30, 45)])
    def test_rabin_generator_is_vandermonde(self, m, n):
        expected = [[gf_pow_scalar(i + 1, j) for j in range(m)] for i in range(n)]
        assert RabinDispersal(m, n).generator == b"".join(
            bytes(row) for row in expected
        )

    def test_generator_identical_across_backends(self):
        built = set()
        for name in ("baseline", "fused", get_backend().name):
            rs_module._GENERATORS.clear()
            built.add(SystematicRSCodec(50, 75, backend=name).generator)
        assert len(built) == 1

    def test_clean_systematic_decode_never_builds_the_generator(self):
        rs_module._GENERATORS.clear()
        m, n = 37, 56
        codec = SystematicRSCodec(m, n)
        raw = [bytes([i]) * 8 for i in range(m)]
        # The clear-text prefix is the raw packets verbatim: no encode.
        assert codec.decode({i: raw[i] for i in range(m)}) == raw
        assert (m, True) not in rs_module._GENERATORS
        cooked = codec.encode(raw)
        assert (m, True) in rs_module._GENERATORS
        lossy = {i: cooked[i] for i in range(1, m + 1)}
        assert codec.decode(lossy) == raw
