"""Exact scalar, matrix, and polynomial arithmetic over Q and Q(i).

Rational literals, Gaussian sums, the small normal matrices that users
supply, eigenvalue predicates and LP feasibility route through this
module; no floating point exists anywhere in the package.  Chain-level
matrices are sparse integer columns in `homology`.  Rationals are plain
fractions.Fraction; Gaussian rationals are a thin immutable pair on top.
Eigenvalues are never materialized: spectral predicates are answered
through the characteristic polynomial chi_A, its value chi_A(1) =
det(I - A) and real-root counts on it (closed form to degree 2, Sturm
chains beyond).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import DegenerateInputError, shown
from .records import Value, require, set_field, slot_setters

Rat = Fraction

# Largest rational literal read: Fraction("1e5000") would build a
# 16 610-bit integer from six characters.
LITERAL_MAX_CHARS = 1000
LITERAL_MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")


def parse_rational(value) -> Fraction:
    """Accept "p/q" / "p" strings or ints; reject floats (inexact)."""
    if isinstance(value, bool):
        raise DegenerateInputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if len(value) > LITERAL_MAX_CHARS or (
            exponent and int(exponent[1].replace("_", "") or 0) > LITERAL_MAX_EXPONENT
        ):
            raise DegenerateInputError(
                f"rational literal {value[:20]!r} exceeds the size bound"
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DegenerateInputError(f"bad rational literal {value!r}") from exc
    raise DegenerateInputError(f"not a rational: {shown(value)}")


def parse_integer(value, what: str, least=None, most=None) -> int:
    """The one reader of the library's integer arguments: an int that is
    not a bool, at least `least` and at most `most` where they are given
    (`most` only with `least`)."""
    if isinstance(value, bool) or not isinstance(value, int):
        rule = "an integer"
    elif (least is None or value >= least) and (most is None or value <= most):
        return value
    else:
        rule = f"at least {least}" if most is None else f"in {least}..{most}"
    raise DegenerateInputError(f"{what} must be {rule}, got {shown(value)}")


def decimal_integer(text: str) -> int | None:
    """The int a decimal string such as "7", "-7" or "07" spells, as a JSON
    object key names one; None for other strings and past the digit limit."""
    if text.removeprefix("-").isdecimal():
        try:
            return int(text)
        except ValueError:  # more than 4300 digits
            pass
    return None


def read_rows(rows, what: str) -> tuple:
    """The one reader of an array of arrays of rationals, such as a matrix
    or the coordinates of a complex: a list or tuple of rows, each a list or
    tuple of rationals.  A string or a number is refused as `what` and as
    one of its rows."""
    return tuple(
        tuple(map(parse_rational, _sequence(row, f"a row of {what}")))
        for row in _sequence(rows, what)
    )


def _sequence(x, what: str):
    if isinstance(x, (list, tuple)):
        return x
    raise DegenerateInputError(f"not {what}: {shown(x)}")


def format_rational(x: Fraction) -> str:
    """x in lowest terms, "p/q" or "p"; a Fraction is printed as it is."""
    return str(x if isinstance(x, Fraction) else Fraction(x))


class GaussianRational(Value):
    """Element of Q(i), kept exact; serialized as {"re": "p/q", "im": "p/q"}."""

    __slots__ = _fields = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
        _set_re(self, re)
        _set_im(self, im)

    @staticmethod
    def of(value) -> "GaussianRational":
        """`value` as a Gaussian rational: a rational, or a dict of its
        rational parts "re" and "im"."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, dict):
            if not set(value) <= {"re", "im"}:
                raise DegenerateInputError(
                    f"a Gaussian value has keys 're', 'im': {shown(value)}"
                )
            re, im = value.get("re", 0), value.get("im", 0)
            return GaussianRational(parse_rational(re), parse_rational(im))
        return GaussianRational(parse_rational(value))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        other = GaussianRational.of(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        other = GaussianRational.of(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im)}

    def __str__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        imag = f"{format_rational(self.im)}i"
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else ""
        return f"{format_rational(self.re)}{sign}{imag}"


_set_re, _set_im = slot_setters(GaussianRational)
GZERO = GaussianRational()


def signed_sum(terms) -> GaussianRational:
    """Exact sum of sign * value over (int sign, GaussianRational) pairs:
    signed_sums with one group."""
    return signed_sums(1, ((0, sign, value) for sign, value in terms))[0]


def signed_sums(count: int, terms) -> list:
    """Exact sums of sign * value, one per group, over (int index, int
    sign, GaussianRational) triples whose index in range(count) names the
    group.

    Each part is read once, as an integer ratio, and its signed numerator
    is added into its group's table under the pair of its re and im
    denominators.  Each part is normalized once, over the lcm of the few
    denominators it meets, and a table with one key builds one Fraction
    per part directly.  Sums in Q(i) are canonical: each result equals the
    term-by-term fold from GZERO, and a group with no nonzero term is
    GZERO itself.  Parts are read through as_integer_ratio, so int parts
    work too.
    """
    # by group: {(re denominator, im denominator): [re numerator, im numerator]}
    tables = [{} for _ in range(count)]
    for index, sign, value in terms:
        re_num, re_den = value.re.as_integer_ratio()
        im_num, im_den = value.im.as_integer_ratio()
        if re_num or im_num:
            table = tables[index]
            key = (re_den, im_den)
            sums = table.get(key)
            if sums is None:
                table[key] = [sign * re_num, sign * im_num]
            else:
                sums[0] += sign * re_num
                sums[1] += sign * im_num
    return [_fold(table) if table else GZERO for table in tables]


def _fold(table: dict) -> GaussianRational:
    """The sum of a nonempty {(re den, im den): [re num, im num]} table,
    each part over the lcm of its own denominators."""
    if len(table) == 1:
        ((re_den, im_den), (re_num, im_num)), = table.items()
        return GaussianRational(Fraction(re_num, re_den), Fraction(im_num, im_den))
    re_common = lcm(*{re_den for re_den, _ in table})
    im_common = lcm(*{im_den for _, im_den in table})
    re_num = im_num = 0
    for (re_den, im_den), (re_part, im_part) in table.items():
        re_num += re_part * (re_common // re_den)
        im_num += im_part * (im_common // im_den)
    return GaussianRational(Fraction(re_num, re_common), Fraction(im_num, im_common))


# ---------------------------------------------------------------------------
# normal matrices


class RationalMatrix(Value):
    """A small dense rational matrix, the normal data of a fixed component:
    parsed, scaled, written back, and read through its characteristic
    polynomial."""

    __slots__ = _fields = ("rows", "cols")

    def __init__(self, rows: tuple, cols: int = -1):
        """rows: a tuple of tuples of Fraction; cols: the explicit width,
        -1 to infer it (a 0-row shape needs it given)."""
        if cols == -1:
            cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != cols:
                raise DegenerateInputError(
                    f"row width {len(row)} disagrees with cols {cols}"
                )
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)

    @staticmethod
    def of(rows) -> "RationalMatrix":
        """The matrix of a list of rows of rationals, read by read_rows."""
        return RationalMatrix(read_rows(rows, "a matrix"))

    @staticmethod
    def zeros(m: int, n: int) -> "RationalMatrix":
        return RationalMatrix(((Fraction(0),) * n,) * m, n)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(
            tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)), n
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.cols

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def scale(self, c) -> "RationalMatrix":
        c = parse_rational(c)
        return RationalMatrix(
            tuple(tuple(c * a for a in row) for row in self.rows), self.ncols
        )

    def to_json(self) -> list:
        return [[format_rational(x) for x in row] for row in self.rows]

    def char_poly(self) -> "RationalPolynomial":
        """Characteristic polynomial chi_A(t) = det(tI - A), monic, exact.

        Hessenberg reduction by similarity, then the recurrence on the
        leading principal minors of tI - H (Cohen, A Course in
        Computational Algebraic Number Theory, Algorithm 2.2.9): O(n^3).
        """
        if not self.is_square():
            raise DegenerateInputError("char_poly needs a square matrix")
        n = self.nrows
        h = [list(row) for row in self.rows]
        for m in range(1, n - 1):
            # zero column m - 1 below the subdiagonal, pivoting on row m
            i = next((r for r in range(m, n) if h[r][m - 1] != 0), None)
            if i is None:
                continue
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
            pivot = Fraction(h[m][m - 1])
            for r in range(m + 1, n):
                u = h[r][m - 1] / pivot
                h[r] = [a - u * b for a, b in zip(h[r], h[m])]
                for row in h:
                    row[m] += u * row[r]
        # p[k]: the leading k x k minor of tI - H, lowest degree first
        p = [[Fraction(1)]]
        for k in range(n):
            nxt = [Fraction(0)] + p[k]
            chain = 1  # h[k][k-1] * ... * h[i+1][i]
            for i in range(k, -1, -1):
                coef = h[i][k] * chain
                for j, c in enumerate(p[i]):
                    nxt[j] -= coef * c
                chain = chain * h[i][i - 1] if i else 0
                if not chain:
                    break
            p.append(nxt)
        return RationalPolynomial(tuple(p[n]))


# ---------------------------------------------------------------------------
# univariate rational polynomials


class RationalPolynomial(Value):
    """Coefficients lowest degree first, trailing zeros stripped."""

    __slots__ = _fields = ("coeffs",)
    noun = "a rational polynomial"

    def __init__(self, coeffs: tuple):
        if coeffs and coeffs[-1] == 0:
            coeffs = RationalPolynomial.of(coeffs).coeffs
        set_field(self, "coeffs", coeffs)

    @staticmethod
    def of(coeffs) -> "RationalPolynomial":
        """A list or tuple of rationals, lowest degree first; a string or a
        number is refused."""
        cs = [parse_rational(c) for c in _sequence(coeffs, "a coefficient list")]
        while cs and cs[-1] == 0:
            cs.pop()
        return RationalPolynomial(tuple(cs))

    @staticmethod
    def constant(c) -> "RationalPolynomial":
        return RationalPolynomial.of([c])

    @staticmethod
    def x_minus(c) -> "RationalPolynomial":
        return RationalPolynomial.of([-parse_rational(c), 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise DegenerateInputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x) -> Fraction:
        x = parse_rational(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return RationalPolynomial.of(
            [
                (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(n)
            ]
        )

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial.constant(other)
        if self.is_zero() or other.is_zero():
            return RationalPolynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPolynomial.of(out)

    __rmul__ = __mul__

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial.of(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def divmod(self, other: "RationalPolynomial") -> tuple:
        if other.is_zero():
            raise DegenerateInputError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        dlead = other.leading()
        dn = other.degree
        while len(rem) - 1 >= dn and rem:
            shift = len(rem) - 1 - dn
            factor = rem[-1] / dlead
            quo[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            while rem and rem[-1] == 0:
                rem.pop()
        return RationalPolynomial.of(quo), RationalPolynomial.of(rem)

    def gcd(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a * (1 / a.leading())

    def squarefree_part(self) -> "RationalPolynomial":
        if self.degree <= 0:
            return self
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self
        return self.divmod(g)[0]

    def to_json(self) -> list:
        return [format_rational(c) for c in self.coeffs]


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def sturm_chain(p: RationalPolynomial) -> list:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        rem = chain[-2].divmod(chain[-1])[1]
        chain.append(-rem)
    chain.pop()
    return chain


def _variations(signs: list) -> int:
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def count_real_roots_gt(p: RationalPolynomial, c) -> int:
    """Distinct real roots of p in the open interval (c, +oo); p(c) = 0 is
    refused, since the sign variations at a root of p miscount.  p need
    not be squarefree: its Sturm chain ends in g = gcd(p, p'), divided by
    g it is a Sturm sequence of p / g, and g != 0 wherever p != 0 (Basu,
    Pollack and Roy, Algorithms in Real Algebraic Geometry)."""
    c = parse_rational(c)
    if p.degree == 0:
        return 0
    chain = sturm_chain(p)  # [p] for the zero polynomial
    at_c = [_sign(q(c)) for q in chain]
    if not at_c[0]:
        raise DegenerateInputError(
            f"root counting past {format_rational(c)}, a root of the polynomial"
        )
    at_inf = [_sign(q.leading()) for q in chain]
    return _variations(at_c) - _variations(at_inf)


def count_real_roots_geq(p: RationalPolynomial, c) -> int:
    """Number of distinct real roots of p in [c, +oo), multiplicity ignored.
    Degree <= 2 is decided in closed form; from degree 3 on, roots at c
    are divided out and one Sturm chain counts the rest."""
    if require(p, RationalPolynomial, "count_real_roots_geq").is_zero():
        raise DegenerateInputError("root counting on the zero polynomial")
    c = parse_rational(c)
    if p.degree <= 2:
        return _count_low_degree_geq(p.coeffs, c)
    at_c = 0
    while p(c) == 0:  # the Sturm count below needs p(c) != 0
        p, at_c = p.divmod(RationalPolynomial.x_minus(c))[0], 1
    return at_c + count_real_roots_gt(p, c)


def _count_low_degree_geq(coeffs: tuple, c: Fraction) -> int:
    """Distinct real roots in [c, +oo) of the nonzero polynomial with
    `coeffs`, lowest degree first, of degree at most 2.  A line's root r
    is >= c exactly when p(c) = a1 (c - r) does not have a1's sign.  A
    quadratic is shifted to q(s) = p(s + c) = a2 s^2 + b1 s + b0, which
    has p's discriminant, and asked for its roots s >= 0: by the signs of
    their product b0 / a2 and their sum -b1 / a2.  Only signs are read,
    so p is first scaled to integers by the lcm of its denominators and
    by powers of c's denominator, all positive, and nothing is divided."""
    if len(coeffs) == 1:
        return 0
    scale = lcm(*(a.denominator for a in coeffs))
    scaled = [a.numerator * (scale // a.denominator) for a in coeffs]
    n, d = c.numerator, c.denominator
    if len(scaled) == 2:
        a0, a1 = scaled
        return int((a0 * d + a1 * n) * a1 <= 0)  # p(c), times scale * d
    a0, a1, a2 = scaled
    disc = a1 * a1 - 4 * a0 * a2
    if disc < 0:
        return 0
    b1 = a1 * d + 2 * a2 * n  # p'(c), times scale * d
    if disc == 0:  # the double root s = -b1 / 2 a2
        return int(b1 * a2 <= 0)
    b0 = (a0 * d + a1 * n) * d + a2 * n * n  # p(c), times scale * d^2
    if b0 == 0:  # s = 0 and s = -b1 / a2
        return 1 + (b1 * a2 < 0)
    if b0 * a2 < 0:
        return 1
    return 2 if b1 * a2 < 0 else 0


# ---------------------------------------------------------------------------
# exact linear feasibility (sign presolve, then phase-1 simplex, Bland's rule)


def has_nonneg_solution(rows: list, rhs: list) -> bool:
    """Exact feasibility of {A t = b, t >= 0} over the rationals.

    The sign presolve (`_sign_presolve`), on the signs of A's columns and
    of b, settles most systems without pivoting.  What survives goes to a
    phase-1 simplex under Bland's rule, which terminates; everything stays
    in Fraction so the verdict is exact.  Entries and right-hand sides are
    ints or Fractions; they are not parsed again.
    """
    if not rows:
        return True
    columns = [
        {i: _sign(row[j]) for i, row in enumerate(rows) if row[j]}
        for j in range(len(rows[0]))
    ]
    live = _sign_presolve(columns, {i: _sign(b) for i, b in enumerate(rhs) if b})
    if live is None:
        return False
    if not live:
        return True
    return _phase1([[row[j] for j in live] for row in rows], rhs)


def _sign_presolve(columns: list, rhs: dict):
    """The sign part of {A t = b, t >= 0}: `columns` holds A's columns as
    {row: +-1} dicts of their nonzero entries' signs, `rhs` the signs of
    b's nonzero entries as {row: +-1}.  None when a row is a Farkas
    certificate of infeasibility, otherwise the indices of the columns
    left live, in order.

    It repeats until nothing changes: a row with b = 0 whose live entries
    all have one sign forces t_j = 0 on its nonzero columns, which are
    dropped; a row with b > 0 and no positive live entry, or b < 0 and no
    negative one, is a certificate.  Dropped columns are zero in every
    solution, so the verdict is unchanged.  Dropping only shrinks the live
    set and a row stays one-signed or a certificate as it shrinks, so the
    result does not depend on the order of the rows.  Once no column is
    live, every row with b != 0 is a certificate.
    """
    live = list(range(len(columns)))
    rows = set(rhs).union(*columns)
    changed = True
    while changed:
        changed = False
        for r in rows:
            if not live:
                return None if rhs else live
            seen = {columns[j].get(r, 0) for j in live}
            pos, neg = 1 in seen, -1 in seen
            b = rhs.get(r, 0)
            if (b > 0 and not pos) or (b < 0 and not neg):
                return None
            if b == 0 and pos != neg:
                live = [j for j in live if r not in columns[j]]
                changed = True
    return live


def _phase1(rows: list, rhs: list) -> bool:
    """Phase-1 simplex on {A t = b, t >= 0} in Fractions: one artificial
    column per row, minimize their sum.  Bland's pivoting rule guarantees
    termination; every reduced cost is re-summed on each iteration."""
    if not rows:
        return True
    m, n = len(rows), len(rows[0])
    table = []
    for row, b in zip(rows, rhs):
        if b < 0:
            row = [-x for x in row]
            b = -b
        table.append(row + [Fraction(0)] * m + [b])
    for i in range(m):
        table[i][n + i] = Fraction(1)
    basis = [n + i for i in range(m)]
    total_cols = n + m

    def reduced_cost(j: int) -> Fraction:
        cost_j = Fraction(1 if j >= n else 0)
        return sum(
            (table[i][j] for i in range(m) if basis[i] >= n), Fraction(0)
        ) - cost_j

    while True:
        entering = next(
            (j for j in range(total_cols) if reduced_cost(j) > 0), None
        )
        if entering is None:
            break
        candidates = [
            (Fraction(table[i][-1], table[i][entering]), basis[i], i)
            for i in range(m)
            if table[i][entering] > 0
        ]
        if not candidates:
            break  # phase-1 objective is bounded; defensive only
        _, _, leave = min(candidates)
        pivot = Fraction(table[leave][entering])
        table[leave] = [x / pivot for x in table[leave]]
        for i in range(m):
            if i != leave and table[i][entering] != 0:
                factor = table[i][entering]
                table[i] = [
                    a - factor * b for a, b in zip(table[i], table[leave])
                ]
        basis[leave] = entering
    residual = sum(
        (table[i][-1] for i in range(m) if basis[i] >= n), Fraction(0)
    )
    return residual == 0
