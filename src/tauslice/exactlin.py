"""Exact linear algebra over the rationals and prime fields.

Everything downstream (path algebra arithmetic, Hom spaces, AR translates)
reduces to row reduction of smallish dense matrices, so this module keeps a
deliberately plain implementation: immutable matrices, int entries over
GF(p) and int/``Fraction`` entries over Q, deterministic leftmost-pivot
elimination.  The one exception is :func:`sparse_echelon`, for systems with
a few nonzero entries per row, such as the intertwining systems of Hom
spaces.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(TypeError):
    """Raised when elements of different fields are mixed."""


class Field:
    """Base class for the two supported exact fields."""

    characteristic: int

    def __init__(self):
        # the matrices Matrix.zero and Matrix.identity share, by shape
        self._zeros = {}
        self._identities = {}

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def coerce(self, x):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse(self, text: str):
        """Parse an element from its decimal / p/q string form."""
        raise NotImplementedError


def _canon(x):
    """Canonical form of a rational: ``Fraction(n, 1)`` becomes the int n."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


class RationalField(Field):
    """Q, each element in canonical form: an ``int``, or a ``Fraction``
    whose denominator is not 1.

    ``int`` and ``Fraction`` compare equal, hash equal and print the same, so
    the form changes no result; it keeps integral arithmetic on ``int``.
    """

    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            return _canon(x)
        if isinstance(x, int):
            return int(x)
        if isinstance(x, str):
            return self.parse(x)
        raise FieldError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return _canon(a + b)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return _canon(a * b)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of 0 in Q")
        return _canon(Fraction(1, a))

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by 0 in Q")
        return _canon(Fraction(a, b))

    def parse(self, text):
        return _canon(Fraction(text))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


#: Miller-Rabin with these bases decides primality exactly below
#: _PRIME_TEST_LIMIT (Sorenson and Webster, 2015)
_PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for ``n < _PRIME_TEST_LIMIT``."""
    if n < 2:
        return False
    for b in _PRIME_TEST_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_TEST_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    """GF(p) with elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        if p >= _PRIME_TEST_LIMIT:
            raise ValueError(f"modulus {p} is too large (the primality test is exact "
                             f"only below {_PRIME_TEST_LIMIT})")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        super().__init__()
        self.p = p
        self.characteristic = p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldError(f"denominator divisible by {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        if isinstance(x, str):
            return self.parse(x)
        raise FieldError(f"cannot coerce {x!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, -1, self.p)

    def parse(self, text):
        return self.coerce(Fraction(text))

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


class Matrix:
    """Immutable dense matrix over a fixed :class:`Field`.

    Rows are tuples of field elements; ``m[i][j]`` is row i, column j.
    A matrix representing a linear map k^c -> k^r has shape (r, c) and acts
    on column vectors.

    The kernels below test for zero by truthiness (the int 0 is the only
    falsy field element) and do their arithmetic inline.  Over Q entries are
    in canonical form (see :class:`RationalField`): plain operators, with a
    result demoted to ``int`` wherever a ``Fraction`` operand can make it
    integral, so all-integer work never builds a ``Fraction``.  Over
    ``GF(p)``: int arithmetic with one ``% p`` per computed entry.

    Degenerate shapes take exact shortcuts that give what the general
    kernels give: a matrix with no rows or no columns is its own RREF, with
    no pivots, and has rank 0; a product with a zero dimension is the zero
    matrix of its shape; a 1x1 ``[x]`` has RREF ``[1]`` with pivot 0 when x
    is nonzero (over Q the 1 is the ``int`` 1).

    :meth:`zero` and :meth:`identity` return one shared matrix per field
    instance and shape, held by the field.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "_hash")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        self.field = field
        coerce = field.coerce
        rows = tuple(tuple(map(coerce, row)) for row in rows)
        self.nrows = len(rows)
        if rows:
            self.ncols = len(rows[0])
            if any(len(r) != self.ncols for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols mismatch")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs explicit ncols")
            self.ncols = ncols
        self.rows = rows
        self._hash = None

    @classmethod
    def _raw(cls, field: Field, rows: tuple, ncols: int) -> "Matrix":
        """Trusted constructor: ``rows`` is a tuple of equal-length tuples of
        elements of ``field``, so nothing is coerced or checked."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        m._hash = None
        return m

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(field: Field, nrows: int, ncols: int) -> "Matrix":
        m = field._zeros.get((nrows, ncols))
        if m is None:
            m = Matrix._raw(field, ((field.zero(),) * ncols,) * nrows, ncols)
            field._zeros[nrows, ncols] = m
        return m

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        m = field._identities.get(n)
        if m is None:
            z, o = field.zero(), field.one()
            m = Matrix._raw(
                field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)), n
            )
            field._identities[n] = m
        return m

    # -- basic protocol ----------------------------------------------

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and (self.field is other.field or self.field == other.field)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.nrows, self.ncols, self.rows))
        return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(map(str, row)) for row in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def _check_field(self, other: "Matrix"):
        if self.field is not other.field and self.field != other.field:
            raise FieldError(f"field mismatch: {self.field!r} vs {other.field!r}")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        p = self.field.characteristic
        if p:
            rows = tuple(
                tuple((a + b) % p for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        else:
            rows = tuple(
                tuple(_canon(a + b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        return Matrix._raw(self.field, rows, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(self.field.coerce(-1))

    def __neg__(self) -> "Matrix":
        return self.scale(self.field.coerce(-1))

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        p = f.characteristic
        if p:
            rows = tuple(tuple(c * x % p for x in row) for row in self.rows)
        else:
            rows = tuple(tuple(_canon(c * x) for x in row) for row in self.rows)
        return Matrix._raw(f, rows, self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Row-by-rows product (i-k-j order) over the nonzero entries."""
        self._check_field(other)
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        f = self.field
        n = other.ncols
        if not (self.nrows and self.ncols and n):
            return Matrix.zero(f, self.nrows, n)
        p = f.characteristic
        z = f.zero()
        other_nz = [[(j, b) for j, b in enumerate(row) if b] for row in other.rows]
        out = []
        for row in self.rows:
            acc = [z] * n
            for a, brow in zip(row, other_nz):
                if a:
                    for j, b in brow:
                        acc[j] += a * b
            if p:
                out.append(tuple(x % p for x in acc))
            elif Fraction in map(type, acc):
                out.append(tuple(map(_canon, acc)))
            else:
                out.append(tuple(acc))
        return Matrix._raw(f, tuple(out), n)

    def transpose(self) -> "Matrix":
        if not (self.nrows and self.ncols):
            return Matrix.zero(self.field, self.ncols, self.nrows)
        return Matrix._raw(self.field, tuple(zip(*self.rows)), self.nrows)

    # -- block operations --------------------------------------------

    def hstack(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return Matrix._raw(
            self.field,
            tuple(r1 + r2 for r1, r2 in zip(self.rows, other.rows)),
            self.ncols + other.ncols,
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch in vstack")
        return Matrix._raw(self.field, self.rows + other.rows, self.ncols)

    @staticmethod
    def block_diagonal(field: Field, blocks) -> "Matrix":
        blocks = list(blocks)
        nc = sum(b.ncols for b in blocks)
        z = field.zero()
        out = []
        c0 = 0
        for b in blocks:
            left, right = (z,) * c0, (z,) * (nc - c0 - b.ncols)
            out.extend(left + row + right for row in b.rows)
            c0 += b.ncols
        return Matrix._raw(field, tuple(out), nc)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        col_idx = list(col_idx)
        rows = self.rows
        return Matrix._raw(
            self.field,
            tuple(tuple(rows[i][j] for j in col_idx) for i in row_idx),
            len(col_idx),
        )

    def column_vector(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def flatten(self) -> tuple:
        """Row-major vectorisation."""
        return tuple(x for row in self.rows for x in row)

    # -- elimination --------------------------------------------------

    def rref(self):
        """Reduced row echelon form.

        Returns ``(R, pivots)`` where pivots are the pivot column indices in
        increasing order.  Pivoting is deterministic: for each column, the
        first row (top to bottom) with a nonzero entry is used.
        """
        if not (self.nrows and self.ncols):
            return self, ()
        f = self.field
        if self.nrows == self.ncols == 1:
            if self.rows[0][0]:
                return Matrix._raw(f, ((f.one(),),), 1), (0,)
            return self, ()
        rows, pivots = self._eliminate(True)
        return Matrix._raw(f, tuple(map(tuple, rows)), self.ncols), pivots

    def rank(self) -> int:
        """The number of pivots of :meth:`rref`, from the forward
        elimination alone: rows above a pivot are not cleared."""
        if not (self.nrows and self.ncols):
            return 0
        return len(self._eliminate(False)[1])

    def _eliminate(self, reduced: bool):
        """(rows, pivots): the rows as lists, in row echelon form with monic
        pivots, and the pivot columns.  Each pivot clears the rows below it,
        and with ``reduced`` the rows above it too, which gives the RREF."""
        p = self.field.characteristic
        ncols = self.ncols
        rows = [list(r) for r in self.rows]
        nrows = len(rows)
        pivots = []
        r = 0
        for c in range(ncols):
            if r >= nrows:
                break
            pr = r
            while pr < nrows and not rows[pr][c]:
                pr += 1
            if pr == nrows:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            prow = rows[r]
            # In rows r.. every column left of c is already zero.
            nz = [j for j in range(c, ncols) if prow[j]]
            piv = prow[c]
            if piv != 1:
                if p:
                    inv = pow(piv, -1, p)
                    for j in nz:
                        prow[j] = prow[j] * inv % p
                elif piv == -1:
                    for j in nz:
                        prow[j] = -prow[j]
                else:
                    for j in nz:
                        prow[j] = _canon(Fraction(prow[j], piv))
            # Over Q, row - fac * prow needs no demoting when fac and prow are
            # ints: an int stays int, a non-integral Fraction minus an int
            # stays non-integral.
            int_prow = not p and Fraction not in map(type, map(prow.__getitem__, nz))
            for i in range(0 if reduced else r + 1, nrows):
                row = rows[i]
                fac = row[c]
                if fac and i != r:
                    if p:
                        for j in nz:
                            row[j] = (row[j] - fac * prow[j]) % p
                    elif int_prow and type(fac) is int:
                        for j in nz:
                            row[j] = row[j] - fac * prow[j]
                    else:
                        for j in nz:
                            row[j] = _canon(row[j] - fac * prow[j])
            pivots.append(c)
            r += 1
        return rows, tuple(pivots)

    def kernel_basis(self) -> list:
        """Basis of the right kernel {v : self @ v = 0}.

        Returns a list of column matrices (shape (ncols, 1)), one per free
        column of the rref, in increasing free-column order.  Each basis
        vector has a 1 in its free coordinate.
        """
        f = self.field
        R, pivots = self.rref()
        echelon = ({j: x for j, x in enumerate(row) if x} for row in R.rows)
        return [Matrix._raw(f, tuple((x,) for x in v), 1)
                for v in _kernel_vectors(f, self.ncols, echelon, pivots)]

    def solve(self, b: "Matrix"):
        """Solve ``self @ x = b`` for a matrix ``x`` (free variables set to 0).

        Returns the solution matrix, or ``None`` when the system is
        inconsistent.
        """
        self._check_field(b)
        if b.nrows != self.nrows:
            raise ValueError("right-hand side has wrong number of rows")
        n = self.ncols
        R, pivots = self.hstack(b).rref()
        if pivots and pivots[-1] >= n:
            return None  # a pivot in the augmented block: inconsistent
        zrow = (self.field.zero(),) * b.ncols
        sol = [zrow] * n
        for r, pc in enumerate(pivots):
            sol[pc] = R.rows[r][n:]
        return Matrix._raw(self.field, tuple(sol), b.ncols)

    def inverse(self):
        """Inverse of a square matrix, or ``None`` if singular."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        sol = self.solve(Matrix.identity(self.field, self.nrows))
        if sol is None or (self @ sol) != Matrix.identity(self.field, self.nrows):
            return None
        return sol


def sparse_echelon(field: Field, rows):
    """Row echelon form of a sparse system, without clearing above pivots.

    ``rows`` is an iterable of dicts {column: coefficient}; a coefficient may
    be any value the field's arithmetic accepts (an int over GF(p) need not
    be reduced) and may be 0.  Returns ``(echelon, pivots)``: the pivot
    columns of ``Matrix.rref`` in increasing order, and for each a row of
    the row space with a leading 1 there, as a dict of its nonzero entries.

    Each row is reduced against the pivot rows found so far, on its leading
    entry, and its remainder, made monic, becomes a pivot row if nonzero.
    """
    p = field.characteristic
    found = {}  # pivot column -> monic row with its leading entry there
    for row in rows:
        if p:
            row = {j: x % p for j, x in row.items() if x % p}
        else:
            row = {j: _canon(x) for j, x in row.items() if x}
        while row:
            c = min(row)
            prow = found.get(c)
            if prow is None:
                break
            _subtract(row, row[c], prow, p)
        if row:
            c = min(row)
            piv = row[c]
            if piv != 1:
                if p:
                    inv = pow(piv, -1, p)
                    row = {j: x * inv % p for j, x in row.items()}
                elif piv == -1:
                    row = {j: -x for j, x in row.items()}
                else:
                    row = {j: _canon(Fraction(x, piv)) for j, x in row.items()}
            found[c] = row
    pivots = sorted(found)
    return [found[c] for c in pivots], tuple(pivots)


def _kernel_vectors(field: Field, n: int, echelon, pivots):
    """Yield the basis of the kernel of an n-column matrix, read off a row
    echelon form with monic pivots (:func:`sparse_echelon`, or the rows of
    ``Matrix.rref``): ``echelon`` yields the pivot rows as dicts of their
    nonzero entries, and ``pivots`` are their pivot columns.  One vector
    per free column fc, in increasing order: 1 at fc, 0 at the other free
    columns, and each pivot left of fc back-substituted, last first (those
    right of fc are 0).  It is the one kernel vector with these free
    entries, so either form gives the RREF's: -R[r][fc] at each pivot."""
    p = field.characteristic
    rows = list(zip(pivots, echelon))
    pivset = set(pivots)
    z, one = field.zero(), field.one()
    left = 0  # the number of pivots left of fc
    for fc in range(n):
        if fc in pivset:
            left += 1
            continue
        vec = [z] * n
        vec[fc] = one
        for pc, row in reversed(rows[:left]):
            s = 0
            for j, x in row.items():
                v = vec[j]
                if v:
                    s += x * v
            if s:
                vec[pc] = -s % p if p else _canon(-s)
        yield vec


def _subtract(row: dict, fac, prow: dict, p: int):
    """row -= fac * prow, in place, keeping only the nonzero entries."""
    get = row.get
    for j, x in prow.items():
        v = get(j, 0) - fac * x
        if p:
            v %= p
        elif type(v) is Fraction and v.denominator == 1:
            v = v.numerator
        if v:
            row[j] = v
        else:
            del row[j]


# -- subspace helpers -------------------------------------------------
#
# Subspaces of k^n are handled as row spans.  All functions return
# echelonised bases so identical subspaces give identical output.  Each
# such basis has unit columns: row t is 1 at column u_t and every other row
# is 0 there, so the coordinates of a vector in the span are its entries at
# the u_t, which :func:`read_coordinates` reads and checks with one
# product.  The general solve :func:`coordinates_in_basis` is for a basis
# without unit columns: vectors go in as rows, free variables (a dependent
# basis) are set to 0.  Both answer None when a vector lies outside the
# span.  A span is completed by standard vectors, and a vector projected
# onto the quotient by the span, only by :func:`null_space`.


def row_space_basis(m: Matrix) -> list:
    """Echelonised basis of the row space, as row tuples."""
    R, pivots = m.rref()
    return [R.rows[i] for i in range(len(pivots))]


def span_matrix(field: Field, vectors, n: int) -> Matrix:
    """Matrix whose rows are an echelonised basis of span(vectors) in k^n.

    The rows are RREF rows, so each row's leading entry is a unit column:
    1 there, and every other row is 0 in that column
    (:func:`leading_columns`)."""
    rows = [tuple(v) for v in vectors]
    if not rows:
        return Matrix.zero(field, 0, n)
    return Matrix._raw(field, tuple(row_space_basis(Matrix(field, rows, n))), n)


def coordinates_in_basis(basis: Matrix, vectors):
    """The len(vectors) x basis.nrows matrix whose row i expresses
    ``vectors[i]`` (a row of length basis.ncols) in the rows of ``basis``,
    or None when some vector lies outside their span.

    :meth:`Matrix.solve` of the transposed system: the basis rows as
    columns, augmented by every vector as a column; free variables are 0.
    An empty basis gives empty rows when every vector is zero.  The entries
    must already be elements of the basis's field: they are not coerced.  A
    vector of another length raises ``ValueError``.
    """
    n = basis.ncols
    vecs = tuple(map(tuple, vectors))
    if any(len(v) != n for v in vecs):
        raise ValueError(f"vector length differs from {n}")
    sol = basis.transpose().solve(Matrix._raw(basis.field, vecs, n).transpose())
    return None if sol is None else sol.transpose()


def leading_columns(basis: Matrix) -> list:
    """The column of each row's first nonzero entry: the unit columns of a
    :func:`span_matrix` or :func:`null_space` basis."""
    return [next(j for j, x in enumerate(row) if x) for row in basis.rows]


def read_coordinates(basis: Matrix, units, vectors):
    """What :func:`coordinates_in_basis` returns, for a basis with unit
    columns: row t of ``basis`` is 1 at column ``units[t]`` and every other
    row is 0 there.

    The coordinates of a vector in the span are its entries at the unit
    columns, so they are read, not solved for; one product checks them,
    and the answer is None when some vector lies outside the span.  The
    entries must already be elements of the basis's field.  A vector of
    another length raises ``ValueError``.
    """
    f, n = basis.field, basis.ncols
    vecs = tuple(map(tuple, vectors))
    if any(len(v) != n for v in vecs):
        raise ValueError(f"vector length differs from {n}")
    co = Matrix._raw(f, tuple(tuple(v[u] for u in units) for v in vecs), basis.nrows)
    # n unit columns make the basis rows standard vectors: nothing to check
    if basis.nrows != n and co @ basis != Matrix._raw(f, vecs, n):
        return None  # some vector is not the combination of its readings
    return co


def null_space(field: Field, rows, n: int):
    """(keep, basis): the echelon basis of {x in k^n : r . x = 0 for each
    of ``rows``}, as the rows of a matrix, and the position of each basis
    row's leading 1.

    One ``rref`` of the rows, each read backwards, gives echelon rows R_t
    with pivots p_t.  Read forwards, row t is zero right of q_t = n-1-p_t
    and 1 at q_t, where every other row is 0.  So the standard vectors e_i
    with i in ``keep``, the positions outside {q_t}, complete the span of
    the rows: e_i is kept exactly when it is independent from the span and
    the e_j kept before it.  The null space has one basis row per such i:
    1 at i and -R_t[n-1-i] at each q_t, zero at every other kept position.
    R_t[n-1-i] is 0 unless q_t > i, so these rows, in the order of i, are
    the echelon form, and ``keep`` are their unit columns for
    :func:`read_coordinates`.  Row k is also the coordinate along
    e_(keep[k]) of the projection k^n -> k^n / span(rows): it is 1 at
    keep[k], 0 at the other kept positions, and kills the rows.
    """
    # what the general path gives with nothing to eliminate
    if not n:
        return [], Matrix._raw(field, (), 0)
    if not rows:
        return list(range(n)), Matrix.identity(field, n)
    z, o = field.zero(), field.one()
    ech, pivots = Matrix._raw(field, tuple(r[::-1] for r in rows), n).rref()
    lead = {n - 1 - p: ech.rows[t] for t, p in enumerate(pivots)}
    keep = [i for i in range(n) if i not in lead]
    basis = []
    for i in keep:
        row = [z] * n
        row[i] = o
        for qt, r in lead.items():
            if r[n - 1 - i]:
                row[qt] = field.neg(r[n - 1 - i])
        basis.append(tuple(row))
    return keep, Matrix._raw(field, tuple(basis), n)
