import functools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tauslice import exactlin
from tauslice.formats import parse_algebra_text
from tauslice.exactlin import (
    Matrix, QQ, PrimeField, FieldError,
    row_space_basis, span_matrix, coordinates_in_basis, read_coordinates,
    leading_columns, null_space, sparse_echelon, _kernel_vectors,
)
from tauslice.fixtures import path as fixture_path
from tauslice.modrep import _direct_sum_rep, hom_basis, injective, projective, simple


F5 = PrimeField(5)


def mat(rows):
    return Matrix(QQ, [[Fraction(x) for x in r] for r in rows])


# --- pinned examples -------------------------------------------------------

def test_rref_rank_pinned():
    m = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    r, pivots = m.rref()
    assert pivots == (0, 1)
    assert r.rows[0] == (1, 0, 1)
    assert r.rows[1] == (0, 1, 1)


def test_kernel_and_solve():
    m = mat([[1, 2, 3], [0, 1, 1]])
    kb = m.kernel_basis()
    assert len(kb) == 1
    for k in kb:
        assert (m @ k).is_zero()
    b = mat([[6], [2]])
    x = m.solve(b)
    assert x is not None
    prod = m @ x
    assert prod.flatten() == (6, 2)
    # inconsistent system
    m2 = mat([[1, 0], [1, 0]])
    assert m2.solve(mat([[1], [2]])) is None


def test_inverse_pinned():
    m = mat([[2, 1], [1, 1]])
    inv = m.inverse()
    assert (m @ inv) == Matrix.identity(QQ, 2)
    assert inv.rows[0] == (1, -1)
    assert mat([[1, 1], [1, 1]]).inverse() is None


def test_prime_field_arithmetic():
    assert F5.add(3, 4) == 2
    assert F5.inv(2) == 3
    assert F5.coerce(Fraction(1, 2)) == 3
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(FieldError):
        F5.coerce(Fraction(1, 5))


def test_prime_field_modulus_is_tested_exactly_and_fast():
    # trial division up to sqrt(p) took minutes at 2^61 - 1
    p = 2 ** 61 - 1
    start = time.perf_counter()
    assert PrimeField(p).p == p
    assert time.perf_counter() - start < 0.5
    # 561 is a Carmichael number, 3215031751 a strong pseudoprime to the
    # bases 2, 3, 5 and 7; the last is beyond the exact range of the test
    for n in (1, 4, 561, 3215031751, (2 ** 31 - 1) * (2 ** 61 - 1)):
        with pytest.raises(ValueError):
            PrimeField(n)
    small = [n for n in range(2, 2000) if all(n % q for q in range(2, n))]
    accepted = []
    for n in range(-3, 2000):
        try:
            accepted.append(PrimeField(n).p)
        except ValueError:
            pass
    assert accepted == small


def test_span_helpers():
    sp = span_matrix(QQ, [(1, 0, 1), (0, 1, 0)], 3)
    assert sp.nrows == 2
    assert coordinates_in_basis(sp, [(2, 3, 2)]) is not None
    assert coordinates_in_basis(sp, [(0, 0, 1)]) is None
    assert coordinates_in_basis(sp, [(2, 3, 2), (0, 0, 1)]) is None
    coords = coordinates_in_basis(sp, [(2, 3, 2)])
    assert coords is not None
    assert coords.rows == ((2, 3),)
    assert null_space(QQ, sp.rows, 3)[0] == [0]
    # two planes meet in a line: dim(A + B) = 2 + 2 - 1
    assert span_matrix(QQ, [(1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1)], 3).nrows == 3


def test_shape_mismatch_raises():
    with pytest.raises(FieldError):
        mat([[1]]) + Matrix(F5, [[1]])
    with pytest.raises(ValueError):
        mat([[1, 2]]) @ mat([[1, 2]])
    # the field and shape checks come before the empty-product shortcut
    with pytest.raises(FieldError):
        Matrix.zero(QQ, 0, 3) @ Matrix.zero(F5, 3, 0)
    with pytest.raises(ValueError):
        Matrix.zero(QQ, 2, 0) @ Matrix.zero(QQ, 1, 2)
    # equality compares fields by value: an equal field object matches
    assert Matrix(F5, [[1]]) == Matrix(PrimeField(5), [[1]])
    assert Matrix(F5, [[1]]) != mat([[1]])


# --- algebraic laws --------------------------------------------------------

small_entries = st.integers(min_value=-4, max_value=4).map(Fraction)


def matrices(nrows, ncols):
    return st.lists(
        st.lists(small_entries, min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows,
    ).map(lambda rows: Matrix(QQ, rows, ncols))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(matrices(3, 4))
def test_rank_of_transpose(m):
    assert m.rank() == m.transpose().rank()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(matrices(3, 4))
def test_kernel_dimension(m):
    assert len(m.kernel_basis()) == 4 - m.rank()
    for k in m.kernel_basis():
        assert (m @ k).is_zero()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(matrices(3, 3), matrices(3, 3), matrices(3, 3))
def test_matmul_associative(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(matrices(2, 3))
def test_rref_idempotent(m):
    r, _p = m.rref()
    r2, _p2 = r.rref()
    assert r == r2


@settings(max_examples=30, deadline=None, derandomize=True)
@given(matrices(3, 4))
def test_row_space_basis_spans(m):
    basis = row_space_basis(m)
    sp = span_matrix(QQ, basis, 4)
    assert sp.nrows == m.rank()
    assert coordinates_in_basis(sp, m.rows) is not None


# --- kernel properties from the definition, over Q, F2 and F5 ---------------
#
# Sparse matrices (most entries zero, some whole rows and columns zero) and
# degenerate shapes.  Every check below is stated from the definition, or
# against a textbook loop written here with the field's own operations.

F2 = PrimeField(2)
FIELDS = [QQ, F2, F5]
DEGENERATE_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1)]
#: the entries of the 1x1 degenerate matrices: zero, units and a non-unit
#: integer over every field, and non-integral rationals over Q
ONE_BY_ONE = [0, 1, -1, 3]
ONE_BY_ONE_Q = [Fraction(1, 2), Fraction(-2, 3)]


#: small rationals, integral ones included, for the Q-only checks
fractional_entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def sparse_matrices(draw, field, max_rows=5, max_cols=5, shape=None,
                    entries=st.integers(-4, 4)):
    nrows, ncols = shape if shape else (
        draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    )
    entry = st.one_of(st.just(0), st.just(0), entries)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2))
    rows = [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)]
    return Matrix(field, rows, ncols)


def reference_product(a, b):
    f = a.field
    out = [[f.zero()] * b.ncols for _ in range(a.nrows)]
    for i in range(a.nrows):
        for j in range(b.ncols):
            for k in range(a.ncols):
                out[i][j] = f.add(out[i][j], f.mul(a.rows[i][k], b.rows[k][j]))
    return out


def reference_rank(field, rows, ncols):
    """Rank by textbook Gaussian elimination with the Field methods."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(ncols):
        pr = next((i for i in range(rank, len(rows))
                   if rows[i][c] != field.zero()), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        for i in range(rank + 1, len(rows)):
            fac = field.div(rows[i][c], rows[rank][c])
            rows[i] = [field.sub(x, field.mul(fac, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def check_rref(m):
    f = m.field
    r, pivots = m.rref()
    assert r.shape == m.shape
    assert list(pivots) == sorted(set(pivots))
    for i, row in enumerate(r.rows):
        if i >= len(pivots):
            assert all(x == f.zero() for x in row)
            continue
        lead = next(j for j, x in enumerate(row) if x != f.zero())
        assert lead == pivots[i] and row[lead] == f.one()
        for k, other in enumerate(r.rows):
            assert k == i or other[lead] == f.zero()
    # every row of m is the combination of the rows of r given by its
    # pivot coordinates, so row(m) lies in row(r); equal ranks give equality
    for row in m.rows:
        combo = [f.zero()] * m.ncols
        for i, pc in enumerate(pivots):
            combo = [f.add(s, f.mul(row[pc], x)) for s, x in zip(combo, r.rows[i])]
        assert tuple(combo) == row
    assert len(pivots) == reference_rank(f, m.rows, m.ncols)


def check_kernel(m):
    kern = m.kernel_basis()
    for k in kern:
        assert k.shape == (m.ncols, 1)
        assert (m @ k).is_zero()
    vectors = [k.column_vector(0) for k in kern]
    assert reference_rank(m.field, vectors, m.ncols) == len(kern)
    assert m.rank() + len(kern) == m.ncols


def check_solve(m, y, b):
    f = m.field
    # b in the column span: a solution must exist and be one
    rhs = m @ y
    x = m.solve(rhs)
    assert x is not None and m @ x == rhs
    x = m.solve(b)
    if x is not None:
        assert m @ x == b
    else:
        aug = [r1 + r2 for r1, r2 in zip(m.rows, b.rows)]
        assert reference_rank(f, aug, m.ncols + b.ncols) > reference_rank(f, m.rows, m.ncols)


def check_product(a, b):
    assert (a @ b).rows == tuple(map(tuple, reference_product(a, b)))
    assert (a @ b).shape == (a.nrows, b.ncols)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_rref_axioms_and_row_space(field, data):
    check_rref(data.draw(sparse_matrices(field)))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_kernel_vectors_and_rank_nullity(field, data):
    check_kernel(data.draw(sparse_matrices(field)))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_solve_consistent_and_inconsistent(field, data):
    m = data.draw(sparse_matrices(field))
    k = data.draw(st.integers(1, 2))
    y = data.draw(sparse_matrices(field, shape=(m.ncols, k)))
    b = data.draw(sparse_matrices(field, shape=(m.nrows, k)))
    check_solve(m, y, b)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_product_matches_triple_loop(field, data):
    a = data.draw(sparse_matrices(field))
    b = data.draw(sparse_matrices(field, shape=(a.ncols, data.draw(st.integers(0, 4)))))
    check_product(a, b)


def greedy_complement(m):
    """Standard vectors e_0, e_1, ... kept when they raise the rank of the
    span and those kept before."""
    f, n = m.field, m.ncols
    rows = [list(r) for r in m.rows]
    rank = reference_rank(f, rows, n)
    out = []
    for i in range(n):
        e = [f.one() if j == i else f.zero() for j in range(n)]
        if reference_rank(f, rows + [e], n) > rank:
            rows.append(e)
            rank += 1
            out.append(tuple(e))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_complement_basis_matches_greedy_scan(field, data):
    """null_space keeps the positions of the greedy completion; its rows
    are n - rank independent vectors that annihilate the input, each 1 at
    its own kept position and 0 at the others."""
    m = data.draw(sparse_matrices(field))
    n = m.ncols
    keep, basis = null_space(field, m.rows, n)
    o, z = field.one(), field.zero()
    assert [tuple(o if j == i else z for j in range(n)) for i in keep] == greedy_complement(m)
    rank = reference_rank(field, m.rows, n)
    assert basis.shape == (n - rank, n)
    assert reference_rank(field, basis.rows, n) == n - rank
    assert (m @ basis.transpose()).is_zero()
    for k, row in enumerate(basis.rows):
        assert [row[i] for i in keep] == [o if t == k else z for t in range(len(keep))]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_null_space_shortcuts_match_the_general_path(field):
    """n = 0 and no rows are read off directly.  With no rows, a zero row
    sends the same space through the elimination; with n = 0, every row is
    empty and the elimination has nothing to keep."""
    for k in (0, 1, 3):
        keep, basis = null_space(field, [()] * k, 0)
        assert keep == [] and basis.shape == (0, 0) and basis.rows == ()
        assert basis.field is field
    for n in (1, 3):
        general_keep, general = null_space(field, [(field.zero(),) * n], n)
        for rows in ([], ()):
            keep, basis = null_space(field, rows, n)
            assert keep == general_keep == list(range(n))
            assert basis == general == Matrix.identity(field, n)
            types = [type(x) for r in basis.rows for x in r]
            assert types == [type(x) for r in general.rows for x in r]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("shape", DEGENERATE_SHAPES, ids=str)
def test_degenerate_shapes(field, shape):
    nr, nc = shape
    fills = [0, 3]
    if shape == (1, 1):
        fills = ONE_BY_ONE + (ONE_BY_ONE_Q if field == QQ else [])
    for x in fills:
        m = Matrix(field, [[x] * nc for _ in range(nr)], nc)
        check_rref(m)
        r, pivots = m.rref()
        assert m.rank() == len(pivots) == reference_rank(field, m.rows, nc)
        # Gauss-Jordan gives the int 1 at each pivot and leaves 0 as it is
        assert all(type(y) is int for row in r.rows for y in row)
        if field == QQ:
            ref_rows, ref_pivots = fraction_rref(m.rows, nc)
            assert r.rows == tuple(map(tuple, ref_rows)) and pivots == tuple(ref_pivots)
        check_kernel(m)
        check_solve(m, Matrix(field, [[1]] * nc, 1), Matrix(field, [[1]] * nr, 1))
        check_product(m, Matrix(field, [[1, 2]] * nc, 2))
        check_product(Matrix(field, [[2]] * 2, 1) @ Matrix(field, [[1] * nr], nr), m)
        assert m.transpose().transpose() == m
    # a product over an empty inner dimension is the zero matrix of its shape
    prod = Matrix.zero(field, nr, 0) @ Matrix.zero(field, 0, nc)
    assert prod == Matrix(field, [[0] * nc for _ in range(nr)], nc)


def check_sparse_echelon(m):
    """sparse_echelon of m's rows, as dicts over every column with each
    entry raised by the characteristic (so zeros are explicit and, over
    GF(p), entries arrive unreduced), is a row echelon form of m: the pivots
    of the dense rref, one row per pivot with its leading entry a 1 there,
    every row in the row space of m; and the kernel reader gives the same
    basis off it as Matrix.kernel_basis off the dense rref."""
    f = m.field
    pad = f.characteristic
    rows = [{j: x + pad for j, x in enumerate(row)} for row in m.rows]
    echelon, pivots = sparse_echelon(f, rows)
    r, dense_pivots = m.rref()
    assert pivots == dense_pivots
    assert len(echelon) == len(pivots)
    for pc, row in zip(pivots, echelon):
        assert min(row) == pc and row[pc] == f.one()
    assert all(x for row in echelon for x in row.values())
    if not pad:
        assert all(is_canonical(x) for row in echelon for x in row.values())
    # each row is the combination of the rref's rows given by its pivot
    # coordinates, so it lies in the row space of m
    z = f.zero()
    for row in echelon:
        combo = [z] * m.ncols
        for i, pc in enumerate(pivots):
            combo = [f.add(s, f.mul(row.get(pc, z), x)) for s, x in zip(combo, r.rows[i])]
        assert combo == [row.get(j, z) for j in range(m.ncols)]
    kernel = [k.column_vector(0) for k in m.kernel_basis()]
    assert [tuple(v) for v in _kernel_vectors(f, m.ncols, echelon, pivots)] == kernel


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_sparse_rref_matches_dense_rref(field, data):
    # the forward echelon agrees with the dense rref in pivots and kernel
    check_sparse_echelon(data.draw(sparse_matrices(field, max_rows=7, max_cols=7)))
    if field == QQ:
        check_sparse_echelon(data.draw(sparse_matrices(field, entries=fractional_entries)))


def test_sparse_rref_negates_a_minus_one_pivot(monkeypatch):
    # every pivot of this system is -1 when its row is reached, so the rows
    # are made monic by negation and no Fraction is built, neither by the
    # echelon nor by the kernel reader
    rows = [[-1, 2, 0, 1, 3, 1], [0, -1, 3, 0, 2, 0], [1, -2, -1, 0, 1, 2],
            [0, 0, 0, -1, 5, 1]]
    m = Matrix(QQ, rows, 6)
    r, pivots = m.rref()
    kernel = [k.column_vector(0) for k in m.kernel_basis()]

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built")

    monkeypatch.setattr(exactlin, "Fraction", no_fraction)
    echelon, sparse_pivots = sparse_echelon(QQ, [dict(enumerate(row)) for row in rows])
    assert sparse_pivots == pivots == (0, 1, 2, 3)
    assert all(type(x) is int for row in echelon for x in row.values())
    assert [row[pc] for pc, row in zip(pivots, echelon)] == [1, 1, 1, 1]
    vectors = [tuple(v) for v in _kernel_vectors(QQ, 6, echelon, pivots)]
    assert vectors == kernel and len(kernel) == 2
    assert all(type(x) is int for v in vectors for x in v)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("shape", DEGENERATE_SHAPES, ids=str)
def test_sparse_rref_degenerate_shapes(field, shape):
    nr, nc = shape
    for rows in ([[0] * nc for _ in range(nr)], [[3] * nc for _ in range(nr)]):
        check_sparse_echelon(Matrix(field, rows, nc))
    assert sparse_echelon(field, []) == ([], ())
    assert sparse_echelon(field, [{}, {2: 0}]) == ([], ())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_rank_is_the_pivot_count_of_rref(field, data):
    # rank runs the forward elimination only; rref clears above pivots too
    shape = data.draw(st.sampled_from([None, (0, 3), (3, 0), (0, 0), (1, 1)]))
    entries = fractional_entries if field == QQ else st.integers(-4, 4)
    m = data.draw(sparse_matrices(field, max_rows=6, max_cols=6, shape=shape,
                                  entries=entries))
    assert m.rank() == len(m.rref()[1]) == reference_rank(field, m.rows, m.ncols)


def test_zero_and_identity_are_shared_per_field_instance():
    for f in FIELDS:
        assert Matrix.zero(f, 2, 3) is Matrix.zero(f, 2, 3)
        assert Matrix.zero(f, 0, 0) is Matrix.zero(f, 0, 0)
        assert Matrix.identity(f, 3) is Matrix.identity(f, 3)
        assert Matrix.zero(f, 2, 3) == Matrix(f, [[0] * 3] * 2, 3)
        assert Matrix.identity(f, 2) == Matrix(f, [[1, 0], [0, 1]], 2)
        assert Matrix.zero(f, 1, 1) is not Matrix.zero(f, 1, 2)
    # equal fields that are distinct objects each hold their own
    g, h = PrimeField(5), PrimeField(5)
    assert g == h and g is not h
    for mg, mh in [(Matrix.zero(g, 2, 2), Matrix.zero(h, 2, 2)),
                   (Matrix.identity(g, 2), Matrix.identity(h, 2))]:
        assert mg == mh and mg is not mh
        assert mg.field is g and mh.field is h


def test_public_constructor_coerces():
    row = Matrix(QQ, [[1, Fraction(4, 2), "6/3", "1/2", True]])[0]
    assert row == (1, 2, 2, Fraction(1, 2), 1)
    assert [type(x) for x in row] == [int, int, int, Fraction, int]
    assert type((Matrix(QQ, [[1, 2]]) @ Matrix(QQ, [[3], [4]]))[0][0]) is int
    with pytest.raises(FieldError):
        Matrix(QQ, [[0.5]])
    assert Matrix(F5, [[7]])[0][0] == 2
    assert Matrix(F5, [[Fraction(1, 2)]])[0][0] == 3


# --- canonical form over Q ------------------------------------------------
#
# Every rational the kernels return is an int, or a Fraction whose
# denominator is not 1; the values are those of Gauss-Jordan elimination
# written here with Fraction arithmetic only.


def is_canonical(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def fraction_rref(rows, ncols):
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                fac = rows[i][c]
                rows[i] = [x - fac * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def fraction_solve(m, b):
    rows, pivots = fraction_rref([r1 + r2 for r1, r2 in zip(m.rows, b.rows)],
                                 m.ncols + b.ncols)
    if pivots and pivots[-1] >= m.ncols:
        return None
    sol = [(Fraction(0),) * b.ncols] * m.ncols
    for r, pc in enumerate(pivots):
        sol[pc] = tuple(rows[r][m.ncols:])
    return sol


def fraction_kernel(rows, pivots, ncols):
    basis = []
    for fc in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def fraction_product(a, b):
    return [tuple(sum((Fraction(a.rows[i][t]) * b.rows[t][j] for t in range(a.ncols)),
                      Fraction(0))
                  for j in range(b.ncols))
            for i in range(a.nrows)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_rational_outputs_are_canonical(data):
    def draw(shape=None):
        return data.draw(sparse_matrices(QQ, shape=shape, entries=fractional_entries))

    m = draw()
    k = data.draw(st.integers(1, 2))
    b, c = draw((m.nrows, k)), draw((m.ncols, k))
    n = data.draw(st.integers(0, 4))
    sq = draw((n, n))
    # unit upper triangular, so invertible
    tri = Matrix(QQ, [[1 if i == j else x if j > i else 0 for j, x in enumerate(row)]
                      for i, row in enumerate(sq.rows)], n)
    outputs = []

    r, pivots = m.rref()
    ref, ref_pivots = fraction_rref(m.rows, m.ncols)
    assert list(pivots) == ref_pivots and list(r.rows) == list(map(tuple, ref))
    kern = m.kernel_basis()
    assert [v.column_vector(0) for v in kern] == fraction_kernel(ref, ref_pivots, m.ncols)
    prod = m @ c
    assert list(prod.rows) == fraction_product(m, c)
    outputs += [r, prod, *kern]

    for rhs in (b, prod):
        x, ref_x = m.solve(rhs), fraction_solve(m, rhs)
        assert (x is None) == (ref_x is None)
        if x is not None:
            assert list(x.rows) == ref_x
            outputs.append(x)
    for a in (sq, tri):
        inv = a.inverse()
        # a @ x = I is consistent exactly when a is invertible
        ref_inv = fraction_solve(a, Matrix.identity(QQ, n))
        assert (inv is None) == (ref_inv is None)
        if inv is not None:
            assert list(inv.rows) == ref_inv
            outputs.append(inv)
    assert tri.inverse() is not None

    assert all(is_canonical(x) for out in outputs for row in out.rows for x in row)


def test_rational_field_returns_ints():
    from tauslice.formats import parse_scalar

    for value, expected in ((QQ.inv(-1), -1), (QQ.div(4, 2), 2),
                            (parse_scalar(QQ, "4/2"), 2), (QQ.zero(), 0), (QQ.one(), 1)):
        assert type(value) is int and value == expected
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)


# --- coordinates along a basis, many vectors at once -----------------------


def check_coordinates(basis, vectors):
    """coordinates_in_basis against the definition: None exactly when a
    vector raises the rank of the basis, else each row reproduces its vector
    and is 0 at every basis row that depends on the rows before it (the
    free variables).  These pin the answer down, independently of
    Matrix.solve, which coordinates_in_basis calls on the transposed
    system; over Q it is also the Fraction-only reference's."""
    f, n, k = basis.field, basis.ncols, basis.nrows
    co = coordinates_in_basis(basis, vectors)
    rank = reference_rank(f, basis.rows, n)
    assert (co is None) == any(
        reference_rank(f, list(basis.rows) + [v], n) > rank for v in vectors)
    if co is None:
        return
    assert co.shape == (len(vectors), k)
    for row, v in zip(co.rows, vectors):
        combo = (f.zero(),) * n
        for c, b in zip(row, basis.rows):
            combo = tuple(f.add(s, f.mul(c, x)) for s, x in zip(combo, b))
        assert combo == tuple(v)
    for t in range(k):
        if reference_rank(f, basis.rows[:t + 1], n) == reference_rank(f, basis.rows[:t], n):
            assert all(row[t] == f.zero() for row in co.rows)
    if vectors and k:
        rhs = Matrix(f, vectors, n).transpose()
        assert co.rows == basis.transpose().solve(rhs).transpose().rows
        if f == QQ:
            assert list(co.rows) == list(zip(*fraction_solve(basis.transpose(), rhs)))
            assert all(is_canonical(x) for row in co.rows for x in row)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_coordinates_in_basis_batch(field, data):
    entries = fractional_entries if field == QQ else st.integers(-4, 4)
    basis = data.draw(sparse_matrices(field, entries=entries))
    if basis.nrows and data.draw(st.booleans()):
        # a dependent basis: one more row, a sum of two rows
        i, j = data.draw(st.integers(0, basis.nrows - 1)), data.draw(st.integers(0, basis.nrows - 1))
        extra = tuple(field.add(x, y) for x, y in zip(basis.rows[i], basis.rows[j]))
        basis = Matrix(field, basis.rows + (extra,), basis.ncols)
    coeffs = data.draw(sparse_matrices(field, shape=(data.draw(st.integers(0, 3)), basis.nrows),
                                       entries=entries))
    inside = list((coeffs @ basis).rows)
    others = list(data.draw(sparse_matrices(
        field, shape=(data.draw(st.integers(0, 2)), basis.ncols), entries=entries)).rows)
    assert coordinates_in_basis(basis, inside) is not None
    check_coordinates(basis, inside)
    check_coordinates(basis, others + inside)


@pytest.mark.parametrize("field", [QQ, F5], ids=repr)
def test_coordinates_in_basis_empty_basis(field):
    empty = Matrix.zero(field, 0, 3)
    assert coordinates_in_basis(empty, []).shape == (0, 0)
    assert coordinates_in_basis(empty, [(0, 0, 0), (0, 0, 0)]).rows == ((), ())
    assert coordinates_in_basis(empty, [(0, 0, 0), (0, 2, 0)]) is None
    assert coordinates_in_basis(Matrix.zero(field, 0, 0), [(), ()]).rows == ((), ())
    # vectors in k^0: every coordinate is a free variable
    assert coordinates_in_basis(Matrix(field, [(), ()], 0), [()]).rows == ((0, 0),)
    # a vector whose length is not the basis width
    for basis in (empty, Matrix(field, [(1, 0, 0)], 3)):
        with pytest.raises(ValueError):
            coordinates_in_basis(basis, [(0, 0, 0), (1, 0)])
        with pytest.raises(ValueError):
            coordinates_in_basis(basis, [(0, 0, 0, 0)])


# --- reading coordinates at unit columns ------------------------------------
#
# The bases of null_space, span_matrix and hom_basis each have unit columns:
# row t is 1 at u_t and every other row is 0 there.  read_coordinates must
# answer exactly what the general solve answers on them.


@functools.cache
def hom_bases(field):
    """(flattened hom_basis, its free columns) between the projective,
    injective and simple modules of fig2 over ``field``, and P1 + P1,
    whose End is 4-dimensional."""
    a = parse_algebra_text(fixture_path("fig2.alg").read_text(), field)
    mods = [f(a, v) for f in (projective, injective, simple) for v in "123"]
    mods.append(_direct_sum_rep(a, [mods[0], mods[0]]))
    out = []
    for x in mods:
        for y in mods:
            rows = tuple(f.flatten() for f in hom_basis(x, y))
            width = sum(dx * dy for dx, dy in zip(x.dims, y.dims))
            basis = Matrix(field, rows, width)
            out.append((basis, [max(j for j, c in enumerate(r) if c) for r in rows]))
    return out


def check_read_matches_solve(basis, units, inside, others):
    f, k = basis.field, basis.nrows
    assert basis.submatrix(range(k), units) == Matrix.identity(f, k)
    got = read_coordinates(basis, units, inside)
    assert got is not None and got == coordinates_in_basis(basis, inside)
    assert got @ basis == Matrix(f, inside, basis.ncols)
    for v in others:
        vectors = inside + [v]
        assert read_coordinates(basis, units, vectors) == coordinates_in_basis(basis, vectors)
    with pytest.raises(ValueError):
        read_coordinates(basis, units, inside + [(0,) * (basis.ncols + 1)])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_read_coordinates_matches_the_solve(field, data):
    m = data.draw(sparse_matrices(field, max_rows=6, max_cols=6))
    keep, ns = null_space(field, m.rows, m.ncols)
    sm = span_matrix(field, m.rows, m.ncols)
    assert leading_columns(ns) == keep
    bases = [(ns, keep), (sm, leading_columns(sm)), data.draw(st.sampled_from(hom_bases(field)))]
    for basis, units in bases:
        n = basis.ncols
        coeffs = data.draw(sparse_matrices(field, shape=(data.draw(st.integers(0, 3)), basis.nrows)))
        others = list(data.draw(sparse_matrices(field, shape=(2, n))).rows)
        # a standard vector at a non-unit column lies outside the span
        outside = [tuple(int(j == c) for j in range(n)) for c in range(n) if c not in units][:1]
        check_read_matches_solve(basis, units, list((coeffs @ basis).rows), others + outside)
        for v in outside:
            assert read_coordinates(basis, units, [v]) is None


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_read_coordinates_on_empty_bases(field):
    # null_space of a full-rank matrix, span_matrix of nothing, a zero Hom
    _keep, ns = null_space(field, [(1, 1), (0, 1)], 2)
    hom_zero = next(b for b, _u in hom_bases(field) if b.nrows == 0 and b.ncols)
    for basis in (ns, span_matrix(field, [], 3), hom_zero):
        n = basis.ncols
        assert read_coordinates(basis, [], []) == coordinates_in_basis(basis, [])
        zeros = [(0,) * n, (0,) * n]
        assert read_coordinates(basis, [], zeros) == coordinates_in_basis(basis, zeros)
        assert read_coordinates(basis, [], zeros).rows == ((), ())
        one = [tuple(int(j == 0) for j in range(n))]
        assert read_coordinates(basis, [], one) is None is coordinates_in_basis(basis, one)
        with pytest.raises(ValueError):
            read_coordinates(basis, [], [(0,) * (n + 1)])
