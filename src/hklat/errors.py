"""The exception hierarchy of hklat.

Every error the package raises is an ``HklatError`` carrying the exit code the
command line reports for it:

* 1 -- malformed input (bad parameters, unparsable expressions or JSON);
* 2 -- mathematical rejection (odd or degenerate forms, impossible invariants,
  a primality that cannot be proved).

Each class also keeps a built-in base, so ``except ValueError`` and the like
still catch it.
"""

from __future__ import annotations


class HklatError(Exception):
    """Base class of every hklat error."""

    exit_code = 1


# -- 1: malformed input ----------------------------------------------------------

class InvalidParameter(HklatError, ValueError):
    """Parameters out of range, unparsable input, or a non-realizable twist."""


class UnsupportedPrime(HklatError, ValueError):
    """A prime beyond the range a command covers: the odd primes 3..19 of
    the tables and the K3 fixed loci, or, for the local actions on the
    fourfold, those up to 23."""


# -- 2: mathematical rejection ---------------------------------------------------

class NotEvenLattice(HklatError, ValueError):
    """Gram matrix is not that of an even nondegenerate lattice."""

    exit_code = 2


class NotPElementary(HklatError, ValueError):
    """Operation requires a p-elementary lattice for a single odd prime."""

    exit_code = 2


class DegenerateForm(HklatError, ValueError):
    """A nondegenerate symmetric or finite quadratic form was expected."""

    exit_code = 2


class PrimalityUnproved(HklatError, ArithmeticError):
    """A probable prime above the Miller-Rabin bound whose primality
    `exact.is_prime` could not prove."""

    exit_code = 2
