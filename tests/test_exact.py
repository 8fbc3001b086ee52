from fractions import Fraction

from hypothesis import given, strategies as st

from gentle.exact import _clear_row, rank, rank_gauss


def test_known_ranks():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1


scalars = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_bareiss_agrees_with_gauss(nrows, ncols, data):
    matrix = [[data.draw(scalars) for _ in range(ncols)] for _ in range(nrows)]
    assert rank(matrix) == rank_gauss(matrix)


@given(st.integers(2, 5), st.data())
def test_duplicated_rows_do_not_raise_rank(n, data):
    row = [data.draw(scalars) for _ in range(n)]
    matrix = [row, [2 * x for x in row], [0 * x for x in row]]
    assert rank(matrix) <= 1


def test_integral_rows_clear_to_their_numerators():
    # every denominator 1: the numerators, gcd-normalised, as ints
    row = _clear_row([Fraction(4), -6, 0])
    assert row == [2, -3, 0] and all(type(x) is int for x in row)
    assert _clear_row([Fraction(1, 2), 1, Fraction(-3, 4)]) == [2, 4, -3]


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_integer_matrices_agree_with_gauss(nrows, ncols, data):
    ints = st.integers(-6, 6)
    matrix = [[data.draw(ints) for _ in range(ncols)] for _ in range(nrows)]
    assert rank(matrix) == rank_gauss(matrix)
