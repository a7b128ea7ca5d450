"""Even lattices: the named catalog, its sums and twists, the Gram-matrix
eliminations, discriminant forms, and recognition of a genus in the catalog.

Gram conventions: U = [[0,1],[1,0]]; the root lattices A_k, D_h, E_l are
negative definite (negated Cartan matrices); <n> is the rank-one lattice of
norm n.  Expressions use the ASCII grammar

    expr  := ['-'] term (' + ' term)*
    term  := ATOM ['(' INT ')'] ['^' INT]
    ATOM  := U | A<k> | D<h> | E6 | E7 | E8 | K<p> | H<p> | L17
           | E6* | A4* | '<' EVEN_INT '>'

e.g. "U^2 + E8^2 + A2", "A2(-1)", "U(3) + A2^3 + <-2>", "<6> + E6*(3)".
A leading '-' negates every summand; an integer longer than Python
converts (4,300 digits) is rejected as parsed.  The catalog states the
duals E6* and A4* as 3·E6* and 5·A4* over 3 and 5; they only realize at
twists clearing those denominators (multiples of 3 resp. 5).  `realize` is
the one way to name a lattice: it builds the lattice of such an expression,
once per process.

A lattice is the orthogonal sum of its blocks.  A block is a Gram matrix
checked once (int entries, square and not empty, symmetric, even,
nondegenerate), by `_block` and nowhere else, with its determinant and
signature (from one Bareiss elimination, `signature_of_symmetric`) and
discriminant data (the Smith form modulo det², `smith_normal_form` and
`_smith_data`), whose form is split from the Smith generators' values and
pairings (`jordan_blocks`) and held as its Jordan splitting.  This is the
one module that makes generator data of a form: the two eliminations and
the splitting live here, with their one caller, and check nothing again.
`Lattice(gram, expr)` is one block; `atom_data` builds each twisted
catalog atom's block once per process; `realize` concatenates blocks
without checking them again.  Every
invariant is read off the blocks: det multiplies, rank and signature add,
and the discriminant form is the orthogonal sum of the blocks' forms, their
Jordan blocks put together.  The `invariants` command prints the
discriminant group and the values of q on generators from
`discriminant_data`, which for a sum of several blocks takes the Smith form
of the full Gram matrix: those generators depend on the pivot order over
the whole matrix, so they are what the command has always printed.  A
lattice keeps its discriminant form and discriminant data once computed.

`recognize` is the inverse of `realize`: it names the first catalog sum of
a given genus (a `classify.LatticeInvariants`, read by its signature and
form only, so that `lattices` never loads `classify`).  Only
`embed` runs it; the tables never load this module.

Per-process caches, all three unbounded, none holding a lattice read from a
file:
  * atom blocks (`atom_data`): one block per twisted catalog atom asked,
    growing with the distinct (atom, twist) pairs;
  * named lattices (`realize`): one lattice per expression asked, with
    what it keeps, growing with the distinct expressions;
  * recognitions (`recognize`): one answer per genus asked.
None grows with the number of queries: a query met again adds nothing.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import cache, reduce
from typing import TYPE_CHECKING, NamedTuple

from .errors import DegenerateForm, InvalidParameter, NotEvenLattice
from .exact import is_prime, prime_factors
from .fqf import FiniteQuadraticForm, local_key, normal_key

if TYPE_CHECKING:  # classify imports lattices, not the other way round
    from .classify import LatticeInvariants

IntMatrix = tuple[tuple[int, ...], ...]


# -- expressions ---------------------------------------------------------------

class LatticeExpr(NamedTuple):
    """Formal direct sum of catalog atoms: ((atom, twist, multiplicity), ...)."""

    summands: tuple[tuple[str, int, int], ...]

    def __str__(self) -> str:
        return render_expr(self)

    def negated(self) -> "LatticeExpr":
        return LatticeExpr(tuple((a, -t, m) for a, t, m in self.summands))


_ATOM_RE = re.compile(
    r"^(U|A\d+|D\d+|E[678]|K\d+|H\d+|L17|E6\*|A4\*|<-?\d+>)"
    r"(?:\((-?\d+)\))?(?:\^(\d+))?$"
)


# The largest rank an expression may name (E8^200 has 1,600): `parse_expr`
# rejects a larger sum before any block or Gram matrix is built.  An atom's
# rank is read off its name: its index for A_k, D_h, E_l, E6* and A4*.
MAX_RANK = 2048
_ATOM_RANKS = {"<": 1, "U": 2, "K": 2, "H": 2, "L": 4}
_DIGITS = re.compile(r"\d+")


def parse_expr(text: str) -> LatticeExpr:
    s = text.strip()
    negate = s.startswith("-")
    if negate:
        s = s[1:].strip()
    if not s:
        raise InvalidParameter("empty lattice expression")
    summands, rank = [], 0
    for piece in s.split("+"):
        m = _ATOM_RE.match(piece.strip())
        if not m:
            raise InvalidParameter(f"cannot parse lattice term {piece.strip()!r}")
        atom, twist, mult = m.groups()
        try:  # every integer of the term is read here, so that none fails later
            twist, mult, *_ = map(int, (twist or "1", mult or "1", *_DIGITS.findall(atom)))
        except ValueError:  # longer than the interpreter converts (4,300 digits)
            raise InvalidParameter("integer too long in a lattice term") from None
        if twist == 0 or mult < 1:
            raise InvalidParameter(f"bad twist or multiplicity in {piece.strip()!r}")
        rank += mult * (_ATOM_RANKS.get(atom[0]) or int(atom[1:].rstrip("*")))
        if rank > MAX_RANK:
            raise InvalidParameter(f"lattice expression of rank above {MAX_RANK}")
        summands.append((atom, twist, mult))
    expr = LatticeExpr(tuple(summands))
    return expr.negated() if negate else expr


def render_expr(expr: LatticeExpr) -> str:
    parts = []
    for atom, twist, mult in expr.summands:
        s = atom
        if twist != 1:
            s += f"({twist})"
        if mult != 1:
            s += f"^{mult}"
        parts.append(s)
    return " + ".join(parts)


# -- Gram matrices for the atoms -------------------------------------------------

def _root_gram(n: int, branch: int) -> IntMatrix:
    """Gram matrix of a negative definite ADE root lattice of rank n: the
    negated Cartan matrix of the chain 0..n-2 with node n-1 joined to node
    `branch` (n-2 for A_n, n-3 for D_n, 2 for E_n in Bourbaki's shape)."""
    edges = {(i, i + 1) for i in range(n - 2)} | {(branch, n - 1)}
    return tuple(
        tuple(-2 if i == j else int((min(i, j), max(i, j)) in edges) for j in range(n))
        for i in range(n)
    )


def _atom_base_gram(atom: str) -> tuple[IntMatrix, int]:
    """(e·G, e) for the Gram matrix G of the untwisted atom: e = 3 for E6*
    and 5 for A4*, whose e·G = e·G_R^-1 for the root lattice R = E6, A4 is
    the reduced adjugate of G_R (Conway and Sloane, SPLAG, ch. 4 §8), and
    e = 1 for every other atom.  Each e·G has an even diagonal (U 0, A/D/E
    -2, K_p -(p+1)/2 and H_p (p-1)/2 for the p allowed, L17 -2 and -4, the
    duals -4 to -18, and <n> is checked even here), so every twist t that
    realizes, an integral multiple (t/e)·e·G, is even."""
    if atom == "E6*":
        return (
            (-4, -5, -6, -4, -2, -3),
            (-5, -10, -12, -8, -4, -6),
            (-6, -12, -18, -12, -6, -9),
            (-4, -8, -12, -10, -5, -6),
            (-2, -4, -6, -5, -4, -3),
            (-3, -6, -9, -6, -3, -6),
        ), 3
    if atom == "A4*":
        return ((-4, -3, -2, -1), (-3, -6, -4, -2), (-2, -4, -6, -3), (-1, -2, -3, -4)), 5
    if atom == "U":
        return ((0, 1), (1, 0)), 1
    if atom.startswith("<") and atom.endswith(">"):
        n = int(atom[1:-1])
        if n == 0 or n % 2:
            raise InvalidParameter(f"<{n}> is not an even rank-one lattice")
        return ((n,),), 1
    if atom[0] == "A" and atom[1:].isdigit():
        k = int(atom[1:])
        if k < 1:
            raise InvalidParameter("A_k needs k >= 1")
        return _root_gram(k, k - 2), 1
    if atom[0] == "D" and atom[1:].isdigit():
        h = int(atom[1:])
        if h < 4:
            raise InvalidParameter("D_h needs h >= 4")
        return _root_gram(h, h - 3), 1
    if atom in ("E6", "E7", "E8"):
        return _root_gram(int(atom[1]), 2), 1
    if atom[0] == "K" and atom[1:].isdigit():
        p = int(atom[1:])
        if p % 4 != 3 or not is_prime(p):
            raise InvalidParameter(f"K_p needs a prime p = 3 mod 4, got {p}")
        return ((-(p + 1) // 2, 1), (1, -2)), 1
    if atom[0] == "H" and atom[1:].isdigit():
        p = int(atom[1:])
        if p % 4 != 1 or not is_prime(p):
            raise InvalidParameter(f"H_p needs a prime p = 1 mod 4, got {p}")
        return (((p - 1) // 2, 1), (1, -2)), 1
    if atom == "L17":
        return ((-2, 1, 0, 1), (1, -2, 0, 0), (0, 0, -2, 1), (1, 0, 1, -4)), 1
    raise InvalidParameter(f"unknown atom {atom!r}")


# -- Gram-matrix elimination ---------------------------------------------------

def block_diag(blocks) -> IntMatrix:
    """Block-diagonal assembly of square matrices."""
    sizes = [len(b) for b in blocks]
    n = sum(sizes)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return tuple(map(tuple, out))


def _min_pivot(a, t):
    """Nonzero entry of the trailing block minimizing (|value|, i, j).  The
    scan is row-major, so the first +-1 met is taken on sight."""
    best, least = None, None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, len(a)):
            x = row[j]
            if x:
                if x == 1 or x == -1:
                    return i, j
                if best is None or abs(x) < least:
                    best, least = (i, j), abs(x)
    return best


def smith_normal_form(m: IntMatrix, det: int) -> tuple[tuple[int, ...], IntMatrix]:
    """Invariant factors of a nonsingular square m with |det m| = |det|, and
    a right transform, by elimination modulo R = det^2 (Cohen, GTM 138, §2.4).

    Returns (factors, V): factors g_1 | g_2 | ... | g_n with product |det|,
    and V unimodular with m·v_t = 0 mod g_t for each column v_t of V.  The
    pivot is the least (|value|, i, j) of the trailing block, a unit taken on
    sight; rows and columns are cleared by division with remainder, and a
    row holding an entry the pivot does not divide is added to the pivot
    row.  Each entry an addition writes is replaced by its centered residue
    mod R when it lies outside [-R, R], also where the addition adds 0; an
    entry no addition has written keeps its value.

    Why this is the Smith form of m.  Row operations U and column operations
    V keep U·m·V = A mod R for the working matrix A, the replacements too.
    R·Z^n lies in m·Z^n, since d·m^-1 = ±adj m is integral for d = |det|; so
    U·m·Z^n = A·Z^n + R·Z^n, i.e. each replacement is a column operation
    against R·I and SNF([m | R·I]) = SNF(m).  At the end A is diagonal and
    A·Z^n + R·Z^n is the sum of the g_t·Z for g_t = gcd(a_tt, R).  Once a_tt
    divides the trailing block, g_t divides every later entry (the later
    operations and residues mod R keep the block in g_t·Z), so the g_t form
    a divisor chain.  Column t gives U·m·v_t = a_tt·e_t mod R, so m·v_t = 0
    mod g_t.

    The trailing block.  At step t the operations on A are swaps and
    additions among rows >= t and among columns >= t.  Rows and columns
    s < t are finished: zero off the diagonal.  An addition among rows >= t
    adds multiples of zeros to zeros in the columns s < t, and one among
    columns >= t does so in the rows s < t; a swap exchanges zeros.
    So these entries stay 0, which is its own residue, and each operation is
    carried out on rows and columns >= t only.  V is kept as its transpose,
    row t holding column v_t, so a column addition on V adds one row to
    another and a column swap exchanges two rows.

    Each step finds a pivot when d = |det| >= 2: were the trailing block 0 at
    step t, the index d of A·Z^n + R·Z^n = U·m·Z^n would be a multiple of
    g_t = gcd(0, R) = R = d^2 > d.

    For |det| = 1 every entry is 0 modulo R = 1: there is no pivot, every
    factor is 1 and V is the identity.  (Eliminating anyway would replace a
    pivot outside [-1, 1] by its residue 0 and divide by it.)
    """
    n = len(m)
    r = det * det
    if r == 1:
        return (1,) * n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    half = r // 2
    a = [list(row) for row in m]
    vt = [[0] * j + [1] + [0] * (n - 1 - j) for j in range(n)]  # vt[j]: column j of V

    def row_add(i, j, q):  # row_i += q * row_j, on columns >= t
        a[i][t:] = [
            x if -r <= (x := y + q * z) <= r else (x + half) % r - half
            for y, z in zip(a[i][t:], a[j][t:])
        ]

    def col_add(i, j, q):  # col_i += q * col_j, on rows >= t
        for row in a[t:]:
            x = row[i] + q * row[j]
            row[i] = x if -r <= x <= r else (x + half) % r - half
        vt[i] = [x + q * y for x, y in zip(vt[i], vt[j])]

    def col_swap(i, j):
        for row in a[t:]:
            row[i], row[j] = row[j], row[i]
        vt[i], vt[j] = vt[j], vt[i]

    for t in range(n):
        i, j = _min_pivot(a, t)
        a[t], a[i] = a[i], a[t]
        if j != t:
            col_swap(t, j)
        # Clear row and column t; swaps keep shrinking the pivot until exact.
        while True:
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    row_add(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    col_add(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # Enforce divisibility of the trailing block by the pivot.
            p = a[t][t]
            culprit = None if p in (1, -1) else next(
                (i for i in range(t + 1, n) if any(x % p for x in a[i][t + 1:])), None
            )
            if culprit is None:
                break
            row_add(t, culprit, 1)

    return tuple(math.gcd(a[t][t], r) for t in range(n)), tuple(zip(*vt))


def signature_of_symmetric(m: IntMatrix) -> tuple[tuple[int, int], int]:
    """((s_plus, s_minus), det) of a nondegenerate symmetric integer matrix,
    by one symmetric fraction-free (Bareiss) elimination.

    Step k sets each trailing entry to (a_ij·p - a_ik·a_kj) / (previous
    pivot), by Sylvester's identity (Bareiss, Math. Comp. 22, 1968) the minor
    of rows 0..k, i and columns 0..k, j: the division is exact and the pivots
    are the leading principal minors d_1, ..., d_n.  So det = d_n, and
    s_minus counts the sign changes in 1, d_1, ..., d_n (Jacobi's rule).  A
    zero pivot is swapped symmetrically with a later nonzero diagonal entry,
    or, with none (as in U), row and column j with a_kj != 0 are added in:
    pivot 2·a_kj.  These unimodular congruences on the indices >= k keep
    det, signature and d_1, ..., d_k, and a trailing entry is linear in its
    row and in its column, so it stays a minor of the repaired matrix: the
    divisions stay exact.  A zero pivot row (`DegenerateForm`) is d_k times
    a zero row of a Schur complement, so the matrix is singular; a singular
    one meets such a row, as d_n = det = 0 and no other pivot is 0.

    m must be square and symmetric: its one caller, `_block`, has checked
    that, and it is not checked again here.
    """
    n, minus, prev = len(m), 0, 1
    a = [list(row) for row in m]
    for k in range(n):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if i is not None:  # symmetric swap of indices k and i
                a[k], a[i] = a[i], a[k]
                for r in a[k:]:
                    r[k], r[i] = r[i], r[k]
            else:  # row_k += row_j and col_k += col_j
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    raise DegenerateForm("matrix is singular")
                a[k][k:] = [x + y for x, y in zip(a[k][k:], a[j][k:])]
                for r in a[k:]:
                    r[k] += r[j]
        p, tail = a[k][k], a[k][k + 1:]
        minus += (p < 0) != (prev < 0)
        for r in a[k + 1:]:
            x = r[k]
            r[k + 1:] = [(y * p - x * z) // prev for y, z in zip(r[k + 1:], tail)]
        prev = p
    return (n - minus, minus), prev


# -- lattices --------------------------------------------------------------------

class DiscriminantData(NamedTuple):
    """Discriminant group of a lattice on Smith-form generators, the dual
    vectors x_i = v_i / d_i for the columns v_i of `smith_normal_form`'s
    transform: their orders, the invariant factors d_i > 1, and the values
    q(x_i)·N mod 2N at the level N = lcm(d_i); with the discriminant form,
    as Jordan blocks."""

    invariant_factors: tuple[int, ...]
    q_values: tuple[int, ...]
    form: FiniteQuadraticForm


class Block(NamedTuple):
    """One orthogonal summand of a lattice: an even, symmetric, nondegenerate
    Gram matrix with its determinant, signature and discriminant data."""

    gram: IntMatrix
    det: int
    signature: tuple[int, int]
    data: DiscriminantData

    @property
    def form(self) -> FiniteQuadraticForm:
        return self.data.form


def _block(gram) -> Block:
    """Check a Gram matrix and compute its invariants, each once: det and
    signature from one elimination, then the discriminant data.  An entry
    must be an int: a bool, float or str raises rather than being
    truncated.  An empty matrix is rejected as malformed input."""
    try:
        g = tuple(map(tuple, gram))
    except TypeError as exc:
        raise InvalidParameter(f"not an integer matrix: {exc}") from exc
    bad = [x for row in g for x in row if type(x) is not int]
    if bad:
        raise InvalidParameter(f"not an integer matrix: entry {bad[0]!r}")
    n = len(g)
    if not n:
        raise InvalidParameter("Gram matrix must not be empty")
    if any(len(row) != n for row in g):
        raise InvalidParameter("Gram matrix must be square")
    if any(g[i][j] != g[j][i] for i in range(n) for j in range(i)):
        raise NotEvenLattice("Gram matrix must be symmetric")
    if any(g[i][i] % 2 for i in range(n)):
        raise NotEvenLattice("lattice is not even: odd diagonal entry")
    try:
        signature, det = signature_of_symmetric(g)
    except DegenerateForm:
        raise NotEvenLattice("lattice is degenerate") from None
    return Block(g, det, signature, _smith_data(g, det))


class Lattice:
    """Even nondegenerate lattice: the orthogonal sum of its blocks.

    Immutable, so the caches can share it.  The Gram matrix is the block
    diagonal matrix of the blocks, built on each read; det, rank, signature
    and the discriminant form are read off the blocks.  The discriminant
    form (`discriminant_form`) and the discriminant data
    (`discriminant_data`) are kept once computed, outside repr.

    The sum of blocks is a lattice with these invariants.  A block diagonal
    matrix of square blocks is symmetric iff each block is (its transpose is
    the block sum of the transposes), its diagonal is the blocks' diagonals,
    its determinant is the product of theirs and, the sum being orthogonal,
    its signature is the sum of theirs.  So a sum of even, symmetric,
    nondegenerate blocks is one too.  The dual of an orthogonal sum is the
    sum of the duals, so A_{L+M} = A_L + A_M and q_{L+M} = q_L + q_M
    (Nikulin 1979, §1)."""

    __slots__ = ("blocks", "expr", "_form", "_data")

    def __init__(self, gram: IntMatrix, expr: LatticeExpr | None = None):
        self._fill((_block(gram),), expr)

    @classmethod
    def from_blocks(cls, blocks, expr: LatticeExpr | None = None) -> "Lattice":
        """The orthogonal sum of blocks `_block` built, not checked again."""
        lattice = object.__new__(cls)
        lattice._fill(tuple(blocks), expr)
        return lattice

    def _fill(self, blocks: tuple[Block, ...], expr: LatticeExpr | None) -> None:
        for name, value in zip(self.__slots__, (blocks, expr, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Lattice is immutable; cannot set {name!r}")

    def __repr__(self):
        return f"Lattice(gram={self.gram!r}, expr={self.expr!r})"

    @property
    def gram(self) -> IntMatrix:
        return block_diag([b.gram for b in self.blocks])

    @property
    def rank(self) -> int:
        return sum(len(b.gram) for b in self.blocks)

    def det(self) -> int:
        return math.prod(b.det for b in self.blocks)

    def signature(self) -> tuple[int, int]:
        return (
            sum(b.signature[0] for b in self.blocks),
            sum(b.signature[1] for b in self.blocks),
        )

    def name(self) -> str:
        return render_expr(self.expr) if self.expr else f"rank-{self.rank} lattice"


@cache
def atom_data(atom: str, twist: int) -> Block:
    """The block of atom(twist), built once per process."""
    base, den = _atom_base_gram(atom)
    if any(twist * x % den for row in base for x in row):
        raise InvalidParameter(f"{atom}({twist}) is not an integral lattice")
    return _block([[twist * x // den for x in row] for row in base])


@cache
def realize(expr: LatticeExpr | str) -> Lattice:
    """The lattice of a catalog expression: the sum of its atoms' blocks.

    Built once per process for each expression asked, a `str` or a
    `LatticeExpr` (a string and its parsed expression are two entries, as
    are two spellings of one sum): the same immutable lattice is returned
    again, with the discriminant form and data it keeps once computed.  A
    rejected expression raises on every call, as exceptions are not
    cached.  Like `atom_data` the cache is unbounded; it grows with the
    distinct expressions asked, not with queries: the 126 expressions of
    the benchmark's frozen `queries` answers, each with its discriminant
    form and data, hold about 190 KB (`tracemalloc`, after their
    `invariants` and `embed` answers).  A lattice read from a JSON file is
    built on every call, never cached."""
    if isinstance(expr, str):
        expr = parse_expr(expr)
    blocks = []
    for atom, twist, mult in expr.summands:
        blocks.extend([atom_data(atom, twist)] * mult)
    return Lattice.from_blocks(blocks, expr)


# -- discriminant data ------------------------------------------------------------

def _dot(dense, support) -> int:
    """dense·v for a vector v given by its nonzero entries (index, value)."""
    return sum(dense[r] * x for r, x in support)


def _smith_data(
    g: IntMatrix, det: int, form: FiniteQuadraticForm | None = None
) -> DiscriminantData:
    """Discriminant group and form, via the Smith form of the Gram matrix G
    modulo R = d^2, d = |det G| (`smith_normal_form`).  The form is split
    from the generators' values and pairings, prime by prime of the level
    (`jordan_blocks`), unless it is given: a lattice of several blocks
    passes the sum of its blocks' forms, an isomorphic form, and no pairing
    is computed.

    With factors g_t and columns v_t of V, the dual vectors x_t = v_t / g_t
    generate L*/L with orders g_t.  G·v_t = 0 mod g_t, so w_t = G·v_t / g_t
    is integral: x_t lies in L* = G^-1·Z^n, of order g_t as v_t is
    primitive.  U·G·v_t = a_tt·e_t + R·z for an integral z, so x_t differs
    from y_t = (a_tt/g_t)·(U·G)^-1·e_t by (R/g_t)·(U·G)^-1·z, which lies in
    (R/g_t)·L* ⊆ d·L* ⊆ L: x_t and y_t are one class, and q(x_t) mod 2Z is
    exact, L being even.  Under y -> U·G·y, L*/L is the sum of the Z/g_s
    and y_t maps to (a_tt/g_t)·e_t, a generator of Z/g_t: g_t divides
    d^2/g_t, so a_tt/g_t, prime to R/g_t, is prime to g_t.  (U and the
    final diagonal a_tt are those of `smith_normal_form`.)

    V is exact, so at the level N the values are the integers
    q(x_t)·N = (v_t·w_t)·(N/g_t) and b(x_s, x_t)·N = (v_t·w_s)·(N/g_t).
    So the data need no check before `jordan_blocks` splits them: they are
    integers, q(x_t)·g_t^2 = v_t·G·v_t is even, b is symmetric with
    b(x_s, x_t) in (1/g_t)Z and b(x_t, x_t) = q(x_t) mod Z, and b is the
    discriminant pairing, which is nondegenerate.  The products run over
    the nonzero entries of the v_t only.  A unimodular G has no factors, so
    its form is the trivial one.
    """
    n = len(g)
    all_factors, v = smith_normal_form(g, det)
    idx = [i for i in range(n) if all_factors[i] > 1]
    factors = tuple(all_factors[i] for i in idx)
    level = math.lcm(*factors)
    supports = [[(r, v[r][i]) for r in range(n) if v[r][i]] for i in idx]
    ws = [tuple(_dot(row, sv) // di for row in g) for sv, di in zip(supports, factors)]
    q_vals = tuple(
        _dot(wi, sv) * (level // di) % (2 * level)
        for sv, wi, di in zip(supports, ws, factors)
    )
    if form is None:
        b_rows = tuple(
            tuple(_dot(wi, sj) * (level // dj) % level for sj, dj in zip(supports, factors))
            for wi in ws
        )
        form = FiniteQuadraticForm(
            {p: tuple(jordan_blocks(factors, q_vals, b_rows, p)) for p in prime_factors(level)}
        )
    return DiscriminantData(factors, q_vals, form)


def _p_power(n: int, p: int) -> int:
    pk = 1
    while n % p == 0:
        n //= p
        pk *= p
    return pk


def jordan_blocks(orders, q_gen, b_gen, p: int) -> list[tuple[int, int | str]]:
    """Orthogonal Jordan splitting of the p-part of the form with generator
    data (orders, q_gen, b_gen) at the level N = lcm(orders):
    q_gen[i] = q(g_i)·N mod 2N and b_gen[i][j] = b(g_i, g_j)·N mod N, as
    `_smith_data` computes them.  Returns the blocks as a list, each one as
    in `FiniteQuadraticForm`: (m, a) cyclic, or (m, "u"), (m, "v") at
    p = 2.  In the library only `_smith_data` runs it, once per prime of
    the level.

    The p-part is read in place: it is generated by c_i·g_i, over the
    generators g_i of order d_i divisible by p, with c_i = d_i / p^k the part
    of d_i prime to p; c_i·g_i has order p^k and values c_i^2·q_gen[i] and
    c_i·c_j·b_gen[i][j], still at the level N.  The data of a p-group are
    their own p-part, with every c_i = 1.

    At each step m is the largest order among the remaining generators and
    s = N/m; an entry is a unit when entry/s is prime to p.  A generator x of
    order m with b(x, x) a unit spans a cyclic block.  For odd p, two
    generators w, v of order m with b(w, v) a unit give such an x as w + v;
    for p = 2 they span an even rank-2 block, of v-type exactly when
    q(w)·m = q(v)·m = 2 mod 4.  If no order-m generator pairs to a unit with
    any other, (m/p)·w lies in the radical and DegenerateForm is raised.
    The other generators are projected off the block, y <- y - c·x, which
    keeps a basis (c·x has order dividing that of y) and updates q and b by
    congruence: q(y - cx) = q(y) - 2c·b(y, x) + c^2·q(x).
    """
    n = math.lcm(*orders)
    keep = [(i, d // pk, pk) for i, d in enumerate(orders) if (pk := _p_power(d, p)) > 1]
    orders = [pk for _, _, pk in keep]
    q = [c * c * q_gen[i] % (2 * n) for i, c, _ in keep]
    b = [[ci * cj * b_gen[i][j] % n for j, cj, _ in keep] for i, ci, _ in keep]
    live = list(range(len(keep)))

    def shift(y, x, c):
        """Replace generator y by y - c·x."""
        bxy = b[x][y]
        q[y] = (q[y] - 2 * c * bxy + c * c * q[x]) % (2 * n)
        byy = (b[y][y] - 2 * c * bxy + c * c * b[x][x]) % n
        for z in live:
            b[y][z] = b[z][y] = (b[y][z] - c * b[x][z]) % n
        b[y][y] = byy

    blocks: list[tuple[int, int | str]] = []
    while live:
        m = max(orders[i] for i in live)
        s = n // m
        top = [i for i in live if orders[i] == m]
        w = next((i for i in top if b[i][i] // s % p), None)
        v = None
        if w is None:
            w = top[0]
            v = next((j for j in top if b[w][j] // s % p), None)
            if v is None:
                raise DegenerateForm("degenerate form has no Jordan splitting")
            if p != 2:
                shift(w, v, -1)  # b(w + v, w + v) = 2·b(w, v) + non-units
                v = None
        if v is None:
            blocks.append((m, q[w] // s))
            block, det, adj = (w,), b[w][w] // s, ((1,),)
        else:
            v_type = q[w] // s % 4 == 2 and q[v] // s % 4 == 2
            blocks.append((m, "v" if v_type else "u"))
            g11, g12, g22 = b[w][w] // s, b[w][v] // s, b[v][v] // s
            block, det, adj = (w, v), g11 * g22 - g12 * g12, ((g22, -g12), (-g12, g11))
        inv = pow(det, -1, m)
        rest = [y for y in live if y not in block]
        for y in rest:  # c = b(y, block)·G^-1 mod m, G the block's Gram over s
            t = [b[y][x] // s for x in block]
            if not any(t):
                continue  # y is already orthogonal to the block
            for x, row in zip(block, adj):
                c = inv * sum(r * ti for r, ti in zip(row, t)) % m
                if c:
                    shift(y, x, c)
        live = rest
    return blocks


def discriminant_data(lattice: Lattice) -> DiscriminantData:
    """The discriminant group on Smith-form generators: a one-block
    lattice's own data, and for several blocks the generators and values of
    the full Gram matrix's Smith form, with `discriminant_form(lattice)` as
    the form.  Kept on the lattice from the first call on."""
    if lattice._data is None:
        if len(lattice.blocks) == 1:
            data = lattice.blocks[0].data
        else:
            data = _smith_data(lattice.gram, lattice.det(), discriminant_form(lattice))
        object.__setattr__(lattice, "_data", data)
    return lattice._data


_TRIVIAL_FORM = FiniteQuadraticForm({})


def discriminant_form(lattice: Lattice) -> FiniteQuadraticForm:
    """The discriminant form: the orthogonal sum of the blocks' forms, from
    the first non-unimodular block on, which puts their Jordan blocks
    together prime by prime (`FiniteQuadraticForm.dsum`).  A lattice with
    one non-unimodular block gets that block's own form, and a unimodular
    one the shared trivial form; forms are immutable, so nothing can change
    them under another lattice.  The sum is kept on the lattice from the
    first call on, so a named lattice (see `realize`) is summed once per
    process."""
    if lattice._form is None:
        forms = [b.form for b in lattice.blocks if b.form.split]
        form = reduce(FiniteQuadraticForm.dsum, forms) if forms else _TRIVIAL_FORM
        object.__setattr__(lattice, "_form", form)
    return lattice._form


# -- recognition --------------------------------------------------------------------

def _pool_terms(target: LatticeInvariants) -> tuple[tuple[str, int], ...]:
    """The recognition pool of `target`: the catalog terms (atom, twist)
    eligible for its search, in canonical order.  A_{p-1} is a term only
    for the odd primes p of |A_T| with p - 1 <= rank T: a larger one, of
    signature (0, p - 1), can never be a summand, and its block alone would
    cost more than the search (A_222 for p = 223)."""
    primes = target.form.split
    odd_primes = sorted(p for p in primes if p != 2)
    terms: list[tuple[str, int]] = [("U", 1)]
    for p in odd_primes:
        terms.append(("U", p))
    for p in odd_primes:
        if p - 1 <= target.rank:
            terms.append((f"A{p - 1}", 1))
    if 3 in odd_primes:
        terms.append(("E6", 1))
    terms.append(("E8", 1))
    for p in odd_primes:
        if p == 3:
            continue  # K3 = A2, already in the pool
        terms.append((f"K{p}" if p % 4 == 3 else f"H{p}", 1))
        if p % 4 == 3:
            terms.append((f"K{p}", -1))
    if 17 in odd_primes:
        terms.append(("L17", 1))
    if 3 in odd_primes:
        terms.append(("E6*", 3))
        terms.append(("A2", -1))
    if 5 in odd_primes:
        terms.append(("A4*", 5))
    if 2 in primes:
        terms.append(("<-2>", 1))
        terms.append(("<2>", 1))
        for p in odd_primes:
            terms.append((f"<{2 * p}>", 1))
            terms.append((f"<{-2 * p}>", 1))
    return tuple(terms)


@cache
def recognize(target: LatticeInvariants) -> LatticeExpr | None:
    """The first catalog direct sum over `_pool_terms(target)` with the
    target's signature and discriminant form, or None when there is none.

    Order: fewest summands first, then the sorted sequence of pool indices,
    lexicographic.  Forms match when their normal keys are equal.  A sum's
    key is read off its atoms' Jordan blocks put together, since any Jordan
    splitting gives the key.

    The answer is a function of the genus of T, so it is computed once per
    process per genus, and the pool is built only for that first search.

    The search.  The atoms are the pool terms with |det| != 1.  Each is filed
    under the largest prime p of its |det|, and the primes are taken from
    the largest down.  For each p, every partial sum kept so far is extended
    by multisets of p's atoms, by nondecreasing pool index, while the |det|
    product divides |A_T| and the signature stays within the target's.  An
    extension is kept once its p-part is done: p does not divide the rest of
    |A_T|, and the local key at p is the target's.  Of the extensions with
    the same state (rest of |A_T|, signature, multiset of Jordan blocks at
    2) only the first in the order above is kept.  After the last prime,
    each partial sum is completed by x copies of U and y copies of E8, and
    the first in order is the answer; with no completion the answer is None.
    A target with a Jordan block of a scale that no atom has is answered
    None before any partial sum is made.

    Complete.  Let M be a pool sum with sig M = sig T and q_M ~ q_T.  Its
    summands with |det| != 1 have |det| product |A_M| = |A_T|, since |det|
    is multiplicative over an orthogonal sum, and each partial sum of them
    has signature <= sig T, since signatures add and are >= 0.  An atom
    filed under p has no prime above p in its |det|, and every pool atom
    with an odd p in its |det| is filed under p: only <2p> and <-2p> have two
    primes.  So once M's atoms of p are placed, the p-part of M is done, and
    q_M ~ q_T gives it the target's local key at p.  An extension dropped
    for one with the same state can be finished by the same atoms: the
    later primes see only the later atoms, and the 2-part, the sum of the
    same blocks, is the same form.  So M's atoms or a sum of the same state
    survive every prime.  The discriminant group of an orthogonal sum is
    the sum of the groups, so the scales of M's Jordan blocks, the orders
    of its cyclic p-parts, are those of its atoms: no pool sum can match a
    target with a scale that no pool atom carries.  Conversely the normal
    key is the tuple of the local keys, so a partial sum that passes every
    prime has the target's key.  Each atom has |det| >= 2, so at most
    Omega(|A_T|) atoms are placed and the search ends.  The other summands
    of M are unimodular, and U and E8 are the only unimodular pool terms.

    Forced.  x copies of U and y of E8 have signature (x, x + 8y).  With
    (D+, D-) = sig T - sig(atoms), x = D+ and y = (D- - D+)/8; atoms for
    which these are not integers >= 0 have no completion.

    Order.  Two extensions with the same state are finished by the same
    atoms, U and E8.  Their summand counts then differ as their lengths do.
    At equal length, of two sorted sequences the first is the one with more
    copies of the smallest index whose multiplicity differs, and that index
    is one of theirs.  So the extension kept comes first with every
    completion, and the answer is the first of all pool sums with the
    target's signature and key.  The budgeted search this replaces (kept as
    the test oracle `tests/recognize_oracle.py`) met the pool multisets of
    the target's signature in this order and took the first with
    |det| = |A_T| and the target's key, so the two give the same answer
    wherever that one answers.  The empty multiset answers the rank-0
    target.
    """
    return _search(_pool_terms(target), target)


def _search(terms: tuple[tuple[str, int], ...], target: LatticeInvariants) -> LatticeExpr | None:
    """`recognize`'s search for `target` over the pool `terms`."""
    data = [atom_data(*term) for term in terms]
    splittings = [atom.form.split for atom in data]
    scales = {m for split in splittings for blocks in split.values() for m, _ in blocks}
    wanted = target.form.split.values()
    if any(m not in scales for blocks in wanted for m, _ in blocks):
        return None
    groups: dict[int, list[tuple[int, int, int, int]]] = {}  # (pool index, |det|, s+, s-)
    for i, (atom, split) in enumerate(zip(data, splittings)):
        if split:
            groups.setdefault(max(split), []).append((i, abs(atom.det), *atom.signature))
    want_plus, want_minus = target.s_plus, target.s_minus
    want = dict(normal_key(target.form))

    def extend(p, atoms, start, left, plus, minus, acc, out):
        """Append to `out` the extensions of acc by `atoms` from `start` on
        whose p-part is done, as ((rest of |A_T|, plus, minus, blocks at 2),
        sorted acc)."""
        if left % p:
            blocks = [b for i in acc for b in splittings[i].get(p, ())]
            if local_key(p, blocks) == want[p]:
                seq = tuple(sorted(acc))
                two = Counter(b for i in seq for b in splittings[i].get(2, ()))
                out.append(((left, plus, minus, frozenset(two.items())), seq))
        for k in range(start, len(atoms)):
            i, d, sp, sm = atoms[k]
            if left % d == 0 and plus + sp <= want_plus and minus + sm <= want_minus:
                extend(p, atoms, k, left // d, plus + sp, minus + sm, acc + (i,), out)

    kept = {(target.form.order, 0, 0, None): ()}
    for p in sorted(groups, reverse=True):
        out: list[tuple[tuple, tuple[int, ...]]] = []
        for (left, plus, minus, _), acc in kept.items():
            extend(p, groups[p], 0, left, plus, minus, acc, out)
        kept = {}
        for state, seq in out:
            if state not in kept or (len(seq), seq) < (len(kept[state]), kept[state]):
                kept[state] = seq

    u, e8 = terms.index(("U", 1)), terms.index(("E8", 1))
    found = []
    for (_, plus, minus, _), acc in kept.items():
        x = want_plus - plus
        y8 = want_minus - minus - x
        if y8 >= 0 and y8 % 8 == 0:
            found.append(tuple(sorted(acc + (u,) * x + (e8,) * (y8 // 8))))
    if not found:
        return None
    counts = Counter(terms[i] for i in min(found, key=lambda seq: (len(seq), seq)))
    return LatticeExpr(tuple((atom, tw, mult) for (atom, tw), mult in counts.items()))


# -- JSON interface ----------------------------------------------------------------

def lattice_from_json(text: str) -> Lattice:
    """Read {"gram": [[...], ...], "name": "optional expr string"}."""
    import json

    try:
        data = json.loads(text)
        gram = data["gram"]
        expr = parse_expr(data["name"]) if data.get("name") else None
    except InvalidParameter:  # the name's own rejection
        raise
    except (KeyError, TypeError, AttributeError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON, or an integer longer than the interpreter converts
        raise InvalidParameter(f"malformed lattice JSON: {exc!r}") from exc
    lattice = Lattice(gram, expr=expr)
    if expr is not None and realize(expr).gram != lattice.gram:
        raise InvalidParameter(f"name {render_expr(expr)!r} does not match the Gram matrix")
    return lattice

