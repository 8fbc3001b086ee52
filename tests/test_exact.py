from fractions import Fraction

from hypothesis import given, strategies as st

from gentle.exact import rank

from oracles import rank_gauss


def sparse(matrix):
    """The rows as {column: entry} dicts, zero entries kept for rank to skip."""
    return [dict(enumerate(row)) for row in matrix]


def test_known_ranks():
    assert rank([]) == 0
    assert rank(sparse([[0, 0], [0, 0]])) == 0
    assert rank(sparse([[1, 2], [2, 4]])) == 1
    assert rank(sparse([[1, 0], [0, 1]])) == 2
    assert rank(sparse([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])) == 1


scalars = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_rank_agrees_with_gauss(nrows, ncols, data):
    matrix = [[data.draw(scalars) for _ in range(ncols)] for _ in range(nrows)]
    assert rank(sparse(matrix)) == rank_gauss(matrix)


@given(st.integers(2, 5), st.data())
def test_duplicated_rows_do_not_raise_rank(n, data):
    row = [data.draw(scalars) for _ in range(n)]
    matrix = [row, [2 * x for x in row], [0 * x for x in row]]
    assert rank(sparse(matrix)) <= 1


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_integer_matrices_agree_with_gauss(nrows, ncols, data):
    ints = st.integers(-6, 6)
    matrix = [[data.draw(ints) for _ in range(ncols)] for _ in range(nrows)]
    assert rank(sparse(matrix)) == rank_gauss(matrix)


@given(st.integers(1, 12), st.integers(1, 12), st.data())
def test_sparse_matrices_agree_with_gauss(nrows, ncols, data):
    # three entries in four are zero: rows meet pivots at scattered
    # leading columns
    mostly_zero = st.one_of(st.just(0), st.just(0), st.just(0), scalars)
    matrix = [[data.draw(mostly_zero) for _ in range(ncols)] for _ in range(nrows)]
    assert rank(sparse(matrix)) == rank_gauss(matrix)


# +-1 makes the cycle below singular for one parity of its length
lambdas = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]),
                    scalars.filter(lambda x: x.denominator > 1))


@given(st.integers(1, 4), st.integers(2, 3), lambdas, st.data())
def test_band_shaped_matrices_agree_with_gauss(d, nodes, lam, data):
    # a cycle of d x d identity blocks closed by a Jordan block, as a band
    # differential lays them out; rows are shuffled so that reductions
    # meet pivots out of order and fill in
    n = d * nodes
    matrix = []
    for k in range(nodes):
        closing = k == nodes - 1
        nxt = 0 if closing else k + 1
        for i in range(d):
            row = [0] * n
            row[k * d + i] = 1
            row[nxt * d + i] += lam if closing else 1
            if closing and i + 1 < d:
                row[nxt * d + i + 1] += 1
            matrix.append(row)
    matrix = data.draw(st.permutations(matrix))
    assert rank(sparse(matrix)) == rank_gauss(matrix)
