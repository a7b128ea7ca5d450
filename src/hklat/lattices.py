"""Even lattices: the named catalog, direct sums, twists, discriminant forms.

Gram conventions: U = [[0,1],[1,0]]; the root lattices A_k, D_h, E_l are
negative definite (negated Cartan matrices); <n> is the rank-one lattice of
norm n.  Expressions use the ASCII grammar

    expr  := ['-'] term (' + ' term)*
    term  := ATOM ['(' INT ')'] ['^' INT]
    ATOM  := U | A<k> | D<h> | E6 | E7 | E8 | K<p> | H<p> | L17
           | E6* | A4* | '<' EVEN_INT '>'

e.g. "U^2 + E8^2 + A2", "A2(-1)", "U(3) + A2^3 + <-2>", "<6> + E6*(3)".
A leading '-' negates every summand.  The duals E6* and A4* only realize at
twists clearing their denominators (multiples of 3 resp. 5).  `realize` is
the one way to name a lattice: it builds the lattice of such an expression,
once per process.

A lattice is the orthogonal sum of its blocks.  A block is an even,
symmetric, nondegenerate Gram matrix, checked once when `_block` builds it,
with its determinant, signature and discriminant data (the Smith form
modulo det², `_smith_data`).  `Lattice(gram, expr)` is one block;
`atom_data` builds each twisted catalog atom's block once per process;
`realize` and `direct_sum` concatenate blocks without checking them again.
Every invariant is read off the blocks: det multiplies, rank and signature
add, and the discriminant form is the orthogonal sum of the blocks' forms.
The `invariants` command prints the discriminant group and the values of q
on generators from `discriminant_data`, which for a sum of several blocks
takes the Smith form of the full Gram matrix: those generators depend on
the pivot order over the whole matrix, so they are what the command has
always printed.  A lattice keeps its Gram matrix, discriminant form and
discriminant data once computed.

Per-process caches, all unbounded, none of them holding a lattice read
from a file:
  * atom blocks (`atom_data`): one block per twisted catalog atom asked,
    growing with the distinct (atom, twist) pairs;
  * named lattices (`realize`): one lattice per expression asked, with
    what it keeps, growing with the distinct expressions;
  * local keys (`fqf.local_key`): the normal key of one p-part per prime
    and multiset of Jordan blocks, growing with the distinct multisets;
  * pool tables (`classify._pool`): per recognition pool its terms, their
    splittings, and the local keys and 2-blocks of the atom multisets the
    searches visit, growing with the pools (the odd primes of |A_T| that
    occur) and those multisets, not with targets.
None grows with the number of queries: a query met again adds nothing.
"""

from __future__ import annotations

import json
import math
import re
from functools import cache, reduce
from typing import NamedTuple

from .errors import InvalidParameter, NotEvenLattice
from .exact import (
    IntMatrix,
    as_matrix,
    block_diag,
    det_exact,
    dims,
    is_prime,
    is_symmetric,
    scale,
    signature_of_symmetric,
    smith_normal_form,
)
from .fqf import FiniteQuadraticForm, jordan_splitting, trivial_form


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


def parse_expr(text: str) -> LatticeExpr:
    s = text.strip()
    negate = s.startswith("-")
    if negate:
        s = s[1:].strip()
    if not s:
        raise InvalidParameter("empty lattice expression")
    summands = []
    for piece in s.split("+"):
        m = _ATOM_RE.match(piece.strip())
        if not m:
            raise InvalidParameter(f"cannot parse lattice term {piece.strip()!r}")
        atom, twist, mult = m.group(1), m.group(2), m.group(3)
        twist = int(twist) if twist else 1
        mult = int(mult) if mult else 1
        if twist == 0 or mult < 1:
            raise InvalidParameter(f"bad twist or multiplicity in {piece.strip()!r}")
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


def _scaled_inverse(m: IntMatrix) -> tuple[IntMatrix, int]:
    """(e·m^-1, e) for the least e > 0 making e·m^-1 integral.

    m^-1 = adj(m)/det, so with c the gcd of the entries of adj(m),
    e·m^-1 = sign(det)·adj(m)/c for e = |det|/c.  The adjugate is taken by
    `det_exact` of the minors, and det by expansion along row 0."""
    n = len(m)
    adj = [
        [(-1) ** (i + j) * det_exact(tuple(r[:i] + r[i + 1:] for r in m[:j] + m[j + 1:]))
         for j in range(n)]
        for i in range(n)
    ]
    det = sum(x * row[0] for x, row in zip(m[0], adj))
    c = math.gcd(*(x for row in adj for x in row)) * (1 if det > 0 else -1)
    return tuple(tuple(x // c for x in row) for row in adj), det // c


def _atom_base_gram(atom: str) -> IntMatrix:
    """Gram matrix of the untwisted atom (the duals E6* and A4* excepted)."""
    if atom == "U":
        return ((0, 1), (1, 0))
    if atom.startswith("<") and atom.endswith(">"):
        n = int(atom[1:-1])
        if n == 0 or n % 2:
            raise InvalidParameter(f"<{n}> is not an even rank-one lattice")
        return ((n,),)
    if atom[0] == "A" and atom[1:].isdigit():
        k = int(atom[1:])
        if k < 1:
            raise InvalidParameter("A_k needs k >= 1")
        return _root_gram(k, k - 2)
    if atom[0] == "D" and atom[1:].isdigit():
        h = int(atom[1:])
        if h < 4:
            raise InvalidParameter("D_h needs h >= 4")
        return _root_gram(h, h - 3)
    if atom in ("E6", "E7", "E8"):
        return _root_gram(int(atom[1]), 2)
    if atom[0] == "K" and atom[1:].isdigit():
        p = int(atom[1:])
        if p % 4 != 3 or not is_prime(p):
            raise InvalidParameter(f"K_p needs a prime p = 3 mod 4, got {p}")
        return ((-(p + 1) // 2, 1), (1, -2))
    if atom[0] == "H" and atom[1:].isdigit():
        p = int(atom[1:])
        if p % 4 != 1 or not is_prime(p):
            raise InvalidParameter(f"H_p needs a prime p = 1 mod 4, got {p}")
        return (((p - 1) // 2, 1), (1, -2))
    if atom == "L17":
        return ((-2, 1, 0, 1), (1, -2, 0, 0), (0, 0, -2, 1), (1, 0, 1, -4))
    raise InvalidParameter(f"unknown atom {atom!r}")


# -- lattices --------------------------------------------------------------------

class DiscriminantData(NamedTuple):
    """Discriminant group of a lattice: generators as the integer columns v_i
    (the dual vector x_i = v_i / d_i in the lattice basis) and the quadratic
    form, whose generator orders are the invariant factors d_i."""

    generators: tuple[tuple[int, ...], ...]
    form: FiniteQuadraticForm

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self.form.orders


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
    """Check a Gram matrix and compute its invariants, each once."""
    g = as_matrix(gram)
    if dims(g)[1] != len(g):
        raise InvalidParameter("Gram matrix must be square")
    if not is_symmetric(g):
        raise NotEvenLattice("Gram matrix must be symmetric")
    if any(g[i][i] % 2 for i in range(len(g))):
        raise NotEvenLattice("lattice is not even: odd diagonal entry")
    det = det_exact(g)
    if det == 0:
        raise NotEvenLattice("lattice is degenerate")
    return Block(g, det, signature_of_symmetric(g), _smith_data(g, det))


class Lattice:
    """Even nondegenerate lattice: the orthogonal sum of its blocks.

    Immutable; equality and hashing go by (gram, expr), whatever the blocks.
    The Gram matrix is the block diagonal matrix of the blocks, built on
    first use; det, rank, signature and the discriminant form are read off
    the blocks.  The Gram matrix, the discriminant form (`discriminant_form`)
    and the discriminant data (`discriminant_data`) are kept once computed,
    outside equality, hashing, repr and pickling.  Copies and pickles carry
    the blocks, so no block is computed again.

    The sum of blocks is a lattice with these invariants.  A block diagonal
    matrix of square blocks is symmetric iff each block is (its transpose is
    the block sum of the transposes), its diagonal is the blocks' diagonals,
    its determinant is the product of theirs and, the sum being orthogonal,
    its signature is the sum of theirs.  So a sum of even, symmetric,
    nondegenerate blocks is one too.  The dual of an orthogonal sum is the
    sum of the duals, so A_{L+M} = A_L + A_M and q_{L+M} = q_L + q_M
    (Nikulin 1979, §1)."""

    __slots__ = ("blocks", "expr", "_gram", "_form", "_data")

    def __init__(self, gram: IntMatrix, expr: LatticeExpr | None = None):
        self._fill((_block(gram),), expr)

    @classmethod
    def from_blocks(cls, blocks, expr: LatticeExpr | None = None) -> "Lattice":
        """The orthogonal sum of blocks `_block` built, not checked again."""
        lattice = object.__new__(cls)
        lattice._fill(tuple(blocks), expr)
        return lattice

    def _fill(self, blocks: tuple[Block, ...], expr: LatticeExpr | None) -> None:
        for name, value in zip(self.__slots__, (blocks, expr, None, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Lattice is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.gram, self.expr) == (other.gram, other.expr)

    def __hash__(self):
        return hash((self.gram, self.expr))

    def __repr__(self):
        return f"Lattice(gram={self.gram!r}, expr={self.expr!r})"

    def __reduce__(self):
        return (Lattice.from_blocks, (self.blocks, self.expr))

    @property
    def gram(self) -> IntMatrix:
        if self._gram is None:
            object.__setattr__(self, "_gram", block_diag([b.gram for b in self.blocks]))
        return self._gram

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
    if atom in ("E6*", "A4*"):  # Gram e·G^-1 of E6 resp. A4, over e
        base, den = _scaled_inverse(_atom_base_gram(atom[:-1]))
    else:
        base, den = _atom_base_gram(atom), 1
    if any(twist * x % den for row in base for x in row):
        raise InvalidParameter(f"{atom}({twist}) is not an integral lattice")
    gram = [[twist * x // den for x in row] for row in base]
    if any(gram[i][i] % 2 for i in range(len(gram))):
        raise InvalidParameter(f"{atom}({twist}) is not even")
    return _block(gram)


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
    the benchmark's frozen `queries` answers, each with its Gram matrix,
    discriminant form and data, hold about 330 KB (`tracemalloc`).  A
    lattice read from a JSON file is built on every call, never cached."""
    if isinstance(expr, str):
        expr = parse_expr(expr)
    blocks = []
    for atom, twist, mult in expr.summands:
        if mult < 1:
            raise InvalidParameter(f"bad multiplicity {mult} of {atom}({twist})")
        blocks.extend([atom_data(atom, twist)] * mult)
    return Lattice.from_blocks(blocks, expr)


def direct_sum(*lattices: Lattice) -> Lattice:
    expr = None
    if all(l.expr is not None for l in lattices):
        summands = []
        for l in lattices:
            summands.extend(l.expr.summands)
        expr = LatticeExpr(tuple(summands))
    return Lattice.from_blocks([b for l in lattices for b in l.blocks], expr)


def twist(lattice: Lattice, t: int) -> Lattice:
    if t == 0:
        raise InvalidParameter("twist by zero")
    expr = None
    if lattice.expr is not None:
        expr = LatticeExpr(tuple((a, tw * t, m) for a, tw, m in lattice.expr.summands))
    return Lattice.from_blocks([_block(scale(b.gram, t)) for b in lattice.blocks], expr)


AMBIENT = "U^3 + E8^2 + <-2>"


def ambient_lattice() -> Lattice:
    """L = U^3 + E8^2 + <-2>, the second cohomology of a K3^[2]-type
    fourfold: `realize(AMBIENT)`, so built once per process and kept with
    its discriminant form; its rank, signature and form are read off it."""
    return realize(AMBIENT)


# -- discriminant data ------------------------------------------------------------

def _dot(dense, support) -> int:
    """dense·v for a vector v given by its nonzero entries (index, value)."""
    return sum(dense[r] * x for r, x in support)


def _smith_data(g: IntMatrix, det: int) -> DiscriminantData:
    """Discriminant group and form, via the Smith form of the Gram matrix G
    modulo R = d^2, d = |det G| (`exact.smith_normal_form`).

    With factors g_t and columns v_t of V, the dual vectors x_t = v_t / g_t
    generate L*/L with orders g_t.  G·v_t = 0 mod g_t, so w_t = G·v_t / g_t
    is integral: x_t lies in L* = G^-1·Z^n, of order g_t as v_t is
    primitive.  U·G·v_t = a_tt·e_t + R·z for an integral z, so x_t differs
    from y_t = (a_tt/g_t)·(U·G)^-1·e_t by (R/g_t)·(U·G)^-1·z, which lies in
    (R/g_t)·L* ⊆ d·L* ⊆ L: x_t and y_t are one class, and q(x_t) mod 2Z is
    exact, L being even.  Under y -> U·G·y, L*/L is the sum of the Z/g_s
    and y_t maps to (a_tt/g_t)·e_t, a generator of Z/g_t: g_t divides
    d^2/g_t, so a_tt/g_t, prime to R/g_t, is prime to g_t.  (U and the
    final diagonal a_tt are those of `exact.smith_normal_form`.)

    V is exact, so at the level N the values are the integers
    q(x_t)·N = (v_t·w_t)·(N/g_t) and b(x_s, x_t)·N = (v_t·w_s)·(N/g_t).
    The products run over the nonzero entries of the v_t only.
    """
    n = len(g)
    if n == 0:
        return DiscriminantData((), trivial_form())
    all_factors, v = smith_normal_form(g, det)
    idx = [i for i in range(n) if all_factors[i] > 1]
    factors = tuple(all_factors[i] for i in idx)
    level = math.lcm(*factors)
    cols = [tuple(v[r][i] for r in range(n)) for i in idx]
    supports = [[(r, x) for r, x in enumerate(vi) if x] for vi in cols]
    ws = [tuple(_dot(row, sv) // di for row in g) for sv, di in zip(supports, factors)]
    q_vals = tuple(
        _dot(wi, sv) * (level // di) % (2 * level)
        for sv, wi, di in zip(supports, ws, factors)
    )
    b_rows = tuple(
        tuple(_dot(wi, sj) * (level // dj) % level for sj, dj in zip(supports, factors))
        for wi in ws
    )
    return DiscriminantData(tuple(cols), FiniteQuadraticForm(factors, q_vals, b_rows))


def discriminant_data(lattice: Lattice) -> DiscriminantData:
    """The discriminant group and form on Smith-form generators: a one-block
    lattice's own, and for several blocks those of the full Gram matrix.
    Kept on the lattice from the first call on."""
    if lattice._data is None:
        if len(lattice.blocks) == 1:
            data = lattice.blocks[0].data
        else:
            data = _smith_data(lattice.gram, lattice.det())
        object.__setattr__(lattice, "_data", data)
    return lattice._data


_TRIVIAL_FORM = trivial_form()


def discriminant_form(lattice: Lattice) -> FiniteQuadraticForm:
    """The discriminant form: the orthogonal sum of the blocks' forms, from
    the first non-unimodular block on.  For several blocks it is isomorphic,
    not equal, to `discriminant_data`'s: the two sit on different
    generators.  A lattice with one non-unimodular block gets that block's
    own form, and a unimodular one the shared trivial form; forms are
    immutable, so nothing can change them under another lattice.  Each
    block's form is split once and kept split (a named atom's for the
    process), so the sum inherits their Jordan splittings (see
    `fqf.jordan_splitting`).  The sum is kept on the lattice from the first
    call on, so a named lattice (see `realize`) is summed once per process."""
    if lattice._form is None:
        forms = [b.form for b in lattice.blocks if b.form.orders]
        for form in forms:
            jordan_splitting(form)
        form = reduce(FiniteQuadraticForm.dsum, forms) if forms else _TRIVIAL_FORM
        object.__setattr__(lattice, "_form", form)
    return lattice._form


# -- JSON interface ----------------------------------------------------------------

def lattice_from_json(text: str) -> Lattice:
    """Read {"gram": [[...], ...], "name": "optional expr string"}."""
    try:
        data = json.loads(text)
        gram = data["gram"]
        expr = parse_expr(data["name"]) if data.get("name") else None
    except (KeyError, TypeError, AttributeError, json.JSONDecodeError) as exc:
        raise InvalidParameter(f"malformed lattice JSON: {exc!r}") from exc
    lattice = Lattice(gram, expr=expr)
    if expr is not None and realize(expr).gram != lattice.gram:
        raise InvalidParameter(f"name {render_expr(expr)!r} does not match the Gram matrix")
    return lattice

