"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain Python values -- `fractions.Fraction` over Q and ints in
[0, p) over F_p -- tagged by the `Field` they belong to.  All arithmetic is
exact; there is no floating point anywhere in this package.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


# The first thirteen primes.  As Miller-Rabin bases they decide primality
# exactly below _PRIME_LIMIT, ~3.3e24 (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether ``n`` is prime, by deterministic Miller-Rabin on the bases
    ``_PRIME_BASES``: exact below ``_PRIME_LIMIT``, a ``ValueError`` from
    there on.  Each base costs O(log n) multiplications, where trial
    division took O(sqrt n) steps and hung on p = 2^61 - 1."""
    if n >= _PRIME_LIMIT:
        raise ValueError(f"primality is decided only below {_PRIME_LIMIT}, got {n}")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """A coefficient field: characteristic 0 means Q, a prime p means F_p."""

    char: int = 0

    def __post_init__(self):
        if self.char != 0 and not is_prime(self.char):
            raise ValueError(f"characteristic must be 0 or prime, got {self.char}")

    # -- element construction -------------------------------------------------

    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def of(self, n) -> object:
        """Coerce an int, Fraction, or 'p/q' string into this field."""
        if self.char == 0:
            return n if type(n) is Fraction else Fraction(n)
        if type(n) is int:
            return n % self.char
        if isinstance(n, str):
            n = Fraction(n)
        if isinstance(n, Fraction):
            if n.denominator % self.char == 0:
                raise ZeroDivisionError(f"{n} has no image in F_{self.char}")
            return (n.numerator * pow(n.denominator, -1, self.char)) % self.char
        return int(n) % self.char

    # -- arithmetic -----------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.char if self.char else a + b

    def sub(self, a, b):
        return (a - b) % self.char if self.char else a - b

    def mul(self, a, b):
        return (a * b) % self.char if self.char else a * b

    def neg(self, a):
        return (-a) % self.char if self.char else -a

    def inv(self, a):
        if self.char:
            if a % self.char == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, -1, self.char)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return (a % self.char == 0) if self.char else a == 0

    # -- serialization --------------------------------------------------------

    def to_str(self, a) -> str:
        return str(a)

    @staticmethod
    def parse(name: str) -> "Field":
        """Parse a field descriptor: 'Q' or 'F<p>' (e.g. 'F7')."""
        if name == "Q":
            return QQ
        digits = name[1:]
        if name[:1] == "F" and digits.isascii() and digits.isdigit() and int(digits):
            return Field(int(digits))
        raise ValueError("expected Q or F<p>")

    def __str__(self):
        return "Q" if self.char == 0 else f"F{self.char}"


QQ = Field(0)
