"""Prime-field arithmetic.

Field elements are plain ints in [0, q); the field object carries the modulus
and the operations. Keeping elements unboxed keeps the matrix layer and the
decoders fast.
"""

from __future__ import annotations

from .errors import ParameterError


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (fine for 31-bit moduli)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def smallest_prime_at_least(n: int) -> int:
    m = max(n, 2)
    while not is_prime(m):
        m += 1
    return m


def default_modulus(n: int) -> int:
    """Default modulus for an n-node code: 257 (bytes embed directly), or the
    smallest prime >= 4n once 257 is too small."""
    if n <= 64:
        return 257
    return smallest_prime_at_least(4 * n)


class Fq:
    """The prime field F_q, operating on plain-int residues."""

    __slots__ = ("q",)

    # Shard symbols are 16-bit, so the codec needs q < 65536; that lets
    # linalg.matmul_mod return uint16 residues, and keeps every int64 product
    # and row update far from overflow.
    MAX_Q = 65535

    def __init__(self, q: int):
        if not isinstance(q, int) or q < 2 or q > self.MAX_Q:
            raise ParameterError(f"modulus must be an integer in [2, 65536): got {q!r}")
        if not is_prime(q):
            raise ParameterError(f"modulus {q} is not prime")
        self.q = q

    def __repr__(self):
        return f"Fq({self.q})"

    def __eq__(self, other):
        return isinstance(other, Fq) and other.q == self.q

    def __hash__(self):
        return hash(("Fq", self.q))

    def element(self, value: int) -> int:
        """Reduce an arbitrary integer into [0, q)."""
        return value % self.q

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ParameterError(f"{a} is not a reduced element of F_{self.q}")
        return a

    def inv(self, a: int) -> int:
        """Multiplicative inverse; a must be nonzero."""
        if self.check(a) == 0:
            raise ZeroDivisionError("zero has no inverse in F_q")
        return pow(a, self.q - 2, self.q)

    def pow(self, a: int, e: int) -> int:
        """a**e with 0**0 defined as 1."""
        if e < 0:
            raise ParameterError("exponent must be nonnegative")
        return pow(self.check(a), e, self.q)
