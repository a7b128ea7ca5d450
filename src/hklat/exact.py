"""Exact integer arithmetic: primality, prime factors and squares.

Everything here works on plain Python integers (arbitrary precision); no
floating point and no fractions are used anywhere.  The Gram-matrix
eliminations, the Smith form and the signature, live in `lattices`, their
one caller, so that a command that builds no lattice never compiles them.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

from .errors import PrimalityUnproved


@cache
def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n > 0, ascending.  The primes of
    `_MR_BASES` are divided out; a cofactor that `is_prime` does not confirm
    is replaced by its root if it is a perfect power (`_power_root`), which
    has the same primes, and is otherwise split by `_rho_divisor`, until
    every part is confirmed prime."""
    out = set()
    for p in _MR_BASES:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            out.add(m)
        elif (r := _power_root(m)) != m:
            parts.append(r)
        else:
            d = _rho_divisor(m)
            parts += (d, m // d)
    return tuple(sorted(out))


def _power_root(n: int) -> int:
    """r for the least k > 1 with r^k = n, or n if there is none, for an
    n > 1 with no prime factor up to 41, so that k <= log_43 n < bits/5.
    The integer Newton steps x -> ((k-1)·x + n // x^(k-1)) // k decrease
    from 2^ceil(bits/k) >= n^(1/k) until they reach floor(n^(1/k))."""
    for k in range(2, n.bit_length() // 5 + 1):
        r = 1 << -(-n.bit_length() // k)
        while (x := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = x
        if r**k == n:
            return r
    return n


def _rho_divisor(n: int) -> int:
    """A proper divisor of a composite n with no prime factor up to 41:
    Pollard's rho on x -> x^2 + c with Brent's cycle search and gcds batched
    over 128 steps (Brent 1980), for c = 1, 2, ... until one splits n."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


# Miller-Rabin to the prime bases up to 41 decides every n below the bound,
# the least strong pseudoprime to all of them (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESS_BASES = range(2, 1000)


def is_prime(n: int) -> bool:
    """Whether n is prime: Miller-Rabin to `_MR_BASES`, which decides every
    n below `_MR_BOUND`; a larger n that passes is proved prime by
    `_pocklington_lehmer`.  That proof factors n - 1, so an n - 1 with two
    large prime factors that Pollard's rho cannot split still runs long."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:  # no prime factor up to 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _pocklington_lehmer(n)


def _pocklington_lehmer(n: int) -> bool:
    """Primality of an odd n > 2 from the primes q of n - 1 (Brillhart,
    Lehmer and Selfridge 1975): n is prime iff each q has a witness b with
    b^(n-1) = 1 mod n and gcd(b^((n-1)/q) - 1, n) = 1.  Proof of "if": for
    a prime p | n, the order of b mod p divides n - 1 but not (n - 1)/q, so
    the q-part of n - 1 divides it and so p - 1; hence n - 1 | p - 1 and
    p = n.  A prime n has (n - 1)(1 - 1/q) witnesses for q, and a base
    with b^(n-1) != 1 proves n composite.  Raises PrimalityUnproved when no
    base of `_WITNESS_BASES` is a witness for some q."""
    for q in prime_factors(n - 1):
        for b in _WITNESS_BASES:
            if pow(b, n - 1, n) != 1:
                return False
            if math.gcd(pow(b, (n - 1) // q, n) - 1, n) == 1:
                break
        else:
            raise PrimalityUnproved(f"no Pocklington-Lehmer witness proves {n} prime")
    return True


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n
