"""Exact scalar arithmetic for the whole engine.

Three interchangeable carriers share one operator surface, so module code
upstream never branches on the coefficient ring:

* rationals, represented by plain ``fractions.Fraction`` (lowest terms,
  positive denominator, arbitrary-precision integers),
* elements of a prime field F_p for an odd prime p (``Fp``),
* dense univariate polynomials in the formal highest weight h over either
  base field (``Poly``, no trailing zero coefficients).  A ``Poly`` holds
  plain ints: over Q integer numerators over one positive common
  denominator, over F_p residues in [0, p).  Its arithmetic is int
  convolution and gcd normalization; ``Poly.coeffs`` is a derived view that
  builds the Fraction or Fp coefficients when they are read.

The same int form serves the Gram slices, linear algebra and the mode
engine.  One codec converts between it and scalars: ``numerators`` splits
(key, scalar) pairs over a field into ints over one denominator and
``poly_numerators`` into int tuples over one denominator (1-tuples over a
base field); both reject a scalar of another ring.  ``field_value``
builds the Fraction or Fp for an int numerator over a denominator,
``poly_value`` the canonical Poly for an int tuple over one, and
``conv_add`` is the one int polynomial product.

The Verma straightening memo, the mode engine and the Fock Virasoro and
fermion memos all hold canonical entries (den, {key: int tuple}), the
output of ``poly_numerators``, and all three layers compute on them through the
one int-sum kernel here: ``add_image`` extends a memoized per-monomial
action linearly to an entry, the one such loop, ``add_products`` adds
products into buckets keyed by denominator, ``normalized_sum`` brings
the buckets to one canonical entry, ``scale_entry`` multiplies an entry
by an integer, and ``entry_values`` decodes an entry into Poly, Fraction
or Fp values.

A ``Ring`` value describes which carrier is in play.  Characteristic 2 is
rejected everywhere because 2 must stay invertible for the central term
(m^3 - m)/12 and for the fermionic normal ordering constants.

No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, Hashable, Iterable, Tuple, Union


class CharacteristicTwoError(ValueError):
    """Characteristic 2 was requested; the construction needs 1/2 in the ring."""


class DenominatorDivisibleByP(ArithmeticError):
    """A rational has no image in F_p because p divides its denominator."""


class RingMismatchError(TypeError):
    """Scalars from incompatible rings were combined."""


def is_odd_prime(p: int) -> bool:
    """True when p is an odd prime (trial division; machine-word sizes)."""
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Fp:
    """Element of F_p, p an odd prime.  Residues are stored in [0, p)."""

    __slots__ = ("p", "v")

    def __init__(self, v: int, p: int):
        self.p = p
        self.v = v % p

    def _lift(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise RingMismatchError(f"mixed primes {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return Fp(self.v * pow(o.v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __eq__(self, other):
        # Only Fp values compare: an int or Fraction that "equals" a residue
        # would hash differently, breaking dict and set lookups.
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        return NotImplemented

    def __hash__(self):
        return hash(("Fp", self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"Fp({self.v}, {self.p})"


class Poly:
    """Dense univariate polynomial in the formal weight h over a base field.

    The value is stored as plain ints: ``num`` is a tuple (n0, n1, ...) with
    no trailing zeros, and the polynomial is sum_i (n_i / den) h^i.  Over Q
    (``char`` 0) the n_i are integer numerators over one positive common
    denominator ``den`` that shares no factor with all of them.  Over F_p
    (``char`` the odd prime p) the n_i are residues in [0, p) and ``den`` is
    1.  The zero polynomial is ``num == ()``, ``den == 1``.  This form is
    canonical, so equality and hashing compare it directly, and arithmetic
    builds no Fraction or Fp objects.

    ``coeffs`` is a derived view: the tuple (c0, c1, ...) of Fraction or Fp
    coefficients, built on each access for evaluation, rendering and tests.
    The constructor takes such coefficients (or ints) and checks each one
    against the base field.
    """

    __slots__ = ("char", "num", "den")

    def __init__(self, coeffs, char: int = 0):
        parts = [_base_parts(cv, char) for cv in coeffs]
        den = lcm(*(d for _, d in parts))
        f = poly_value([n * (den // d) for n, d in parts], den, char)
        self.char, self.num, self.den = char, f.num, f.den

    @property
    def coeffs(self) -> tuple:
        return tuple(field_value(v, self.den, self.char) for v in self.num)

    def _lift(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.char != self.char:
                raise RingMismatchError("mixed base fields in polynomial arithmetic")
            return other
        if isinstance(other, (int, Fraction, Fp)):
            return Poly((other,), self.char)
        return NotImplemented

    def degree(self) -> int:
        """Degree in h, with the zero polynomial reported as -1."""
        return len(self.num) - 1

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, den = self.num, o.num, self.den
        if den != o.den:
            g = gcd(den, o.den)
            fa, fb = o.den // g, den // g
            a, b, den = [x * fa for x in a], [y * fb for y in b], den * fa
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return poly_value(out, den, self.char)

    __radd__ = __add__

    def __neg__(self):
        return poly_value([-x for x in self.num], self.den, self.char)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return poly_value(conv_add([], self.num, o.num), self.den * o.den, self.char)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Poly((1,), self.char)
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.degree() > 0:
            raise ArithmeticError("polynomial division only by constants")
        if not o.num:
            raise ZeroDivisionError("division by zero polynomial")
        p, c = self.char, o.num[0]
        if p:
            inv = pow(c, -1, p)
            return poly_value([x * inv for x in self.num], 1, p)
        # (num / den) / (c / d) = (d num) / (c den); the sign of c goes on top.
        d = o.den
        if c < 0:
            c, d = -c, -d
        return poly_value([x * d for x in self.num], self.den * c, 0)

    def __eq__(self, other):
        # Only Poly values compare, for the same reason as Fp.__eq__.
        if isinstance(other, Poly):
            return self.char == other.char and self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.char, self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def eval(self, x):
        """Evaluate at x by Horner's rule; x must live in the base field."""
        acc = field_value(0, 1, self.char)
        for cv in reversed(self.coeffs):
            acc = acc * x + cv
        return acc

    def __repr__(self):
        return f"Poly({self.coeffs!r}, char={self.char})"


def poly_value(num, den: int, char: int) -> Poly:
    """The canonical Poly with coefficients num[i] / den (num[i] mod p over
    F_p, where den is 1): trailing zeros dropped and, over Q, the factor
    that den shares with every numerator divided out.  num is any int
    sequence and is not modified.  This is the one decoder of the int
    polynomial form; it builds the Poly directly, without the constructor's
    checks."""
    if char:
        num = [x % char for x in num]
    k = len(num)
    while k and not num[k - 1]:
        k -= 1
    if not k:
        num, den = (), 1
    else:
        if k < len(num):
            num = num[:k]
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                den //= g
                num = [x // g for x in num]
    f = object.__new__(Poly)
    f.char, f.num, f.den = char, tuple(num), den
    return f


def conv_add(acc: list, a, b) -> list:
    """acc += a * b for int coefficient sequences, lowest degree first: acc
    is extended as needed, updated in place and returned.  The one int
    convolution, behind Poly.__mul__ and the mode engine's sums."""
    if not a or not b:
        return acc
    n = len(a) + len(b) - 1 - len(acc)
    if n > 0:
        acc += [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                acc[j] += x * y
    return acc


Scalar = Union[Fraction, Fp, Poly]


def _base_parts(x, char: int) -> Tuple[int, int]:
    """A base scalar as ints: over Q its numerator and positive denominator
    in lowest terms, over F_p its residue in [0, p) and 1.

    Only ints, Fractions and Fp values of the same prime are base scalars:
    anything else (an Fp over Q or mod another prime, a Poly, a float, a
    string) raises RingMismatchError.  A rational whose denominator p divides
    raises DenominatorDivisibleByP.
    """
    if isinstance(x, int):
        return (x % char if char else x), 1
    if isinstance(x, Fraction):
        n, d = x.numerator, x.denominator
        if not char:
            return n, d
        if d % char == 0:
            raise DenominatorDivisibleByP(f"{x} has no image mod {char}")
        return n * pow(d, -1, char) % char, 1
    if isinstance(x, Fp):
        if not char:
            raise RingMismatchError("prime-field scalar in a rational ring")
        if x.p != char:
            raise RingMismatchError(f"scalar mod {x.p} in a ring mod {char}")
        return x.v, 1
    raise RingMismatchError(f"cannot coerce {x!r} into characteristic {char}")


def _base_coerce(x, char: int):
    """x as a base-field element: a Fraction over Q, an Fp over F_p."""
    n, d = _base_parts(x, char)
    return field_value(n, d, char)


def field_value(n: int, den: int, char: int):
    """n / den as a base-field element: a Fraction over Q (char 0), an Fp
    over F_p (char the prime p, den a unit mod p).  This is the one place
    that builds a Fraction or Fp from an int numerator; den == 1, the only
    case over F_p in the int form, skips the gcd and the inverse."""
    if char:
        return Fp(n if den == 1 else n * pow(den, -1, char), char)
    return Fraction(n) if den == 1 else Fraction(n, den)


class Ring:
    """Descriptor of a coefficient ring: immutable, hashable, and equal to
    any ring of the same characteristic and formality.

    char 0 means Q, an odd prime p means F_p.  With formal=True the elements
    are polynomials in the formal weight h over that base field.
    """

    def __init__(self, char: int = 0, formal: bool = False):
        if char == 2:
            raise CharacteristicTwoError("characteristic 2 is unsupported, 2 must be invertible")
        if char != 0 and not is_odd_prime(char):
            raise ValueError(f"characteristic must be 0 or an odd prime, got {char}")
        self.__dict__.update(char=char, formal=formal)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Ring")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Ring")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.char == other.char and self.formal == other.formal

    def __hash__(self):
        return hash((self.char, self.formal))

    def __repr__(self):
        return f"Ring(char={self.char!r}, formal={self.formal!r})"

    @property
    def base(self) -> "Ring":
        return Ring(self.char, False)

    def zero(self) -> Scalar:
        if self.formal:
            return Poly((), self.char)
        return field_value(0, 1, self.char)

    def one(self) -> Scalar:
        return self.of_int(1)

    def of_int(self, n: int) -> Scalar:
        if self.formal:
            return Poly((n,), self.char)
        return _base_coerce(n, self.char)

    def of_fraction(self, q: Fraction) -> Scalar:
        if self.formal:
            return Poly((q,), self.char)
        return _base_coerce(q, self.char)

    def coerce(self, x) -> Scalar:
        """Canonicalize x (int, Fraction, Fp, or Poly) into this ring."""
        if self.formal:
            if isinstance(x, Poly):
                if x.char != self.char:
                    raise RingMismatchError("polynomial over the wrong base field")
                return x
            return Poly((x,), self.char)
        return _base_coerce(x, self.char)

    def h(self) -> Scalar:
        """The formal weight generator; only available in formal rings."""
        if not self.formal:
            raise ValueError("h is only defined in a formal-weight ring")
        return Poly((0, 1), self.char)

    def parse(self, s: str) -> Scalar:
        """Parse 'num', 'num/den', 'k mod p', or (formal rings only) 'h'."""
        s = s.strip()
        if s == "h":
            return self.h()
        return scalar_from_json(s, self)


QQ = Ring(0)


def numerators(items: Iterable[Tuple[Hashable, Scalar]], ring: Ring) -> Tuple[int, dict]:
    """(den, {key: numerator}) for the nonzero scalars among (key, scalar)
    pairs, each equal to field_value(numerator, den, ring.char) over a
    field: over Q ints over the lcm den of the denominators, over F_p
    residues in [0, p) with den 1.  A formal ring raises
    RingMismatchError: its scalars are split by poly_numerators.

    Unlike _base_parts this coerces nothing: an int or Fraction over F_p,
    or an Fp over Q or mod another prime, raises RingMismatchError.
    """
    if ring.formal:
        raise RingMismatchError("numerators need a field, not a polynomial ring")
    p = ring.char
    d = {}
    if p:
        for j, x in items:
            if not isinstance(x, Fp) or x.p != p:
                raise RingMismatchError(f"{x!r} is not an element of F_{p}")
            if x.v:
                d[j] = x.v
        return 1, d
    den = 1
    for j, x in items:
        if not isinstance(x, (int, Fraction)):
            raise RingMismatchError(f"{x!r} is not a rational number")
        if x:
            d[j] = x
            den = lcm(den, x.denominator)
    return den, {j: x.numerator * (den // x.denominator) for j, x in d.items()}


def _is_poly(x, p: int) -> bool:
    """True for a nonzero Poly over characteristic p, False for its zero;
    anything else raises RingMismatchError."""
    if not isinstance(x, Poly) or x.char != p:
        raise RingMismatchError(f"{x!r} is not a polynomial over characteristic {p}")
    return bool(x.num)


def poly_numerators(items: Iterable[Tuple[Hashable, Scalar]], ring: Ring) -> Tuple[int, dict]:
    """(den, {key: int tuple}) for the nonzero scalars among (key, scalar)
    pairs, each the polynomial sum_i (tuple[i] / den) h^i, with no trailing
    zero.  Over Q[h] the tuples are ints over the lcm den of the Poly
    denominators, over F_p[h] residues in [0, p) with den 1.  Over a base
    field each scalar is a constant, a 1-tuple holding its numerator from
    `numerators`.  Decode with poly_value over a formal ring and with
    field_value of the one entry over a base field.

    As strict as numerators: over a formal ring anything but a Poly over
    the same base field raises RingMismatchError.
    """
    if not ring.formal:
        den, nums = numerators(items, ring)
        return den, {j: (v,) for j, v in nums.items()}
    p = ring.char
    polys = {j: x for j, x in items if _is_poly(x, p)}
    den = lcm(*(x.den for x in polys.values()))
    return den, {j: x.num if x.den == den else tuple(v * (den // x.den) for v in x.num) for j, x in polys.items()}


# An entry is the output of poly_numerators in canonical form: no tuple is
# empty or ends in 0, den is 1 over F_p with residues in [0, p), and over Q
# den shares no factor with all the numerators.  Its tuples are immutable.
# A sum is kept in buckets keyed by denominator, in lists the sum owns, so
# no sum aliases an entry.
Entry = Tuple[int, Dict[Hashable, Tuple[int, ...]]]
Buckets = Dict[int, Dict[Hashable, list]]
# The zero entry, shared by every zero result: no code writes to an entry.
ZERO_ENTRY: Entry = (1, {})


def add_products(acc: Dict[Hashable, list], a, image: Dict[Hashable, tuple]) -> None:
    """acc[r] += a * b for every (r, b) of image, a and b int tuples, in
    lists acc owns.  A constant a, every factor over a base field, adds a
    multiple of b (`_add_multiple`) instead of a convolution."""
    add = _add_multiple if len(a) == 1 else conv_add
    for r, b in image.items():
        s = acc.get(r)
        if s is None:
            acc[r] = add([], a, b)
        else:
            add(s, a, b)


def add_image(buckets: Buckets, entry: Entry, image: Callable[..., Entry], *args) -> None:
    """Add a * image(*args, q) for every (q, a) of entry into buckets keyed by
    the product of the two denominators: the one linear extension of a
    per-monomial action to an entry.  image returns canonical entries and
    is passed with its arguments, not wrapped in a lambda, so each monomial
    costs one call."""
    den, terms = entry
    for q, a in terms.items():
        d, img = image(*args, q)
        if img:
            add_products(buckets.setdefault(den * d, {}), a, img)


def _add_multiple(acc: list, a, b) -> list:
    """conv_add for a constant a = (f,): acc += f * b."""
    f = a[0]
    n = len(acc)
    for j, y in enumerate(b):
        if j < n:
            acc[j] += f * y
        else:
            acc.append(f * y)
    return acc


def scale_entry(entry: Entry, f: int, p: int) -> Entry:
    """An entry times the integer f, in canonical form."""
    if f == 1:
        return entry
    den, terms = entry
    return normalized_sum({den: {q: [x * f for x in v] for q, v in terms.items()}}, p)


def normalized_sum(buckets: Buckets, p: int) -> Entry:
    """The canonical entry for a sum kept in buckets keyed by denominator:
    every bucket brought to the lcm of the keys, residues reduced mod p,
    zero and trailing-zero terms dropped, and over Q the gcd of the
    denominator and all numerators divided out.  The bucket lists are
    consumed."""
    if len(buckets) == 1:
        ((den, acc),) = buckets.items()
    else:
        den = lcm(*buckets)
        acc = {}
        for d, terms in buckets.items():
            add_products(acc, (den // d,), terms)
    out: Dict[Hashable, tuple] = {}
    g = den
    for r, v in acc.items():
        if p:
            v = [x % p for x in v]
        while v and not v[-1]:
            v.pop()
        if not v:
            continue
        out[r] = v = tuple(v)
        if g != 1:
            g = gcd(g, *v)
    if not out:
        return ZERO_ENTRY
    if g == 1:
        return den, out
    return den // g, {r: tuple(x // g for x in v) for r, v in out.items()}


def entry_values(entry: Entry, ring: Ring) -> dict:
    """The one decoder of an entry: {key: Poly} over a formal ring, {key:
    Fraction or Fp} over a base field."""
    den, terms = entry
    p = ring.char
    if ring.formal:
        return {q: poly_value(v, den, p) for q, v in terms.items()}
    return {q: field_value(v[0], den, p) for q, v in terms.items()}


def GF(p: int) -> Ring:
    return Ring(p)


def formal_ring(char: int = 0) -> Ring:
    return Ring(char, True)


def reduce_mod_p(q: Union[int, Fraction], p: int) -> Fp:
    """Image of an integer or rational in F_p.

    Raises DenominatorDivisibleByP when the denominator is not a unit mod p.
    """
    if not is_odd_prime(p):
        if p == 2:
            raise CharacteristicTwoError("characteristic 2 is unsupported, 2 must be invertible")
        raise ValueError(f"modulus must be an odd prime, got {p}")
    return _base_coerce(q, p)


def central_coeff(m: int, ring: Ring) -> Scalar:
    """Central term coefficient (m^3 - m)/12 of [L(m), L(-m)].

    Computed as the exact integer (m^3 - m)/3 times the ring inverse of 4,
    which stays valid in characteristic 3.
    """
    t = (m * m * m - m) // 3
    return ring.of_int(t) / ring.of_int(4)


def poly_eval(f: Poly, x) -> Scalar:
    """Evaluate a polynomial scalar at a base-field point."""
    if not isinstance(f, Poly):
        raise TypeError("poly_eval expects a polynomial scalar")
    return f.eval(_base_coerce(x, f.char))


def scalar_to_str(x: Scalar) -> str:
    """Render a scalar: 'num/den' for rationals, 'k mod p' for prime fields,
    and an explicit polynomial in h for formal scalars."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Fp):
        return f"{x.v} mod {x.p}"
    if isinstance(x, Poly):
        if not x.num:
            return "0"
        parts = []
        for i, cv in reversed(list(enumerate(x.coeffs))):
            if not cv:
                continue
            cs = str(cv.v) if isinstance(cv, Fp) else str(cv)
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append(f"{cs}*h")
            else:
                parts.append(f"{cs}*h^{i}")
        return " + ".join(parts)
    raise TypeError(f"not a scalar: {x!r}")


def scalar_to_json(x: Scalar):
    """JSON form: strings for base scalars, a coefficient array for polynomials."""
    if isinstance(x, Poly):
        return [scalar_to_json(cv) for cv in x.coeffs]
    return scalar_to_str(x)


def scalar_from_json(data, ring: Ring) -> Scalar:
    """Inverse of scalar_to_json for the given ring."""
    if isinstance(data, list):
        if not ring.formal:
            raise RingMismatchError("coefficient array given for a non-formal ring")
        base = ring.base
        return Poly(tuple(scalar_from_json(cv, base) for cv in data), ring.char)
    s = str(data).strip()
    if " mod " in s:
        vs, ps = s.split(" mod ")
        p = int(ps)
        if not ring.char:
            raise RingMismatchError(f"scalar mod {p} in a ring of characteristic 0, which has no residues")
        if ring.char != p:
            raise RingMismatchError(f"scalar mod {p} in a ring of characteristic {ring.char}")
        return ring.coerce(int(vs))
    try:
        q = Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None
    return ring.coerce(q)
