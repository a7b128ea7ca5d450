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
twists clearing their denominators (multiples of 3 resp. 5).

Two routes to a lattice's invariants.  The atom route: `atom_data` builds
each twisted atom once per process, with every check, its det, signature
and discriminant form; `realize` sums them (det multiplies, signatures add,
discriminant forms add orthogonally), so a named lattice costs its block
matrix and no elimination.  `discriminant_form`, `is_p_elementary`,
`classify.invariants_of` and hence `embed` take it for every lattice
`realize` built.  The Smith route: a lattice from JSON, or from
`Lattice(gram, expr)`, `direct_sum` or `twist`, is checked, and its det,
signature and discriminant form are eliminated from the full Gram matrix,
the form by `discriminant_data` from the Smith form modulo det².  The
`invariants` command prints the discriminant group and the values of q on
generators from `discriminant_data` for every lattice: those generators
depend on the pivot order over the whole matrix, so they are what the
command has always printed.
"""

from __future__ import annotations

import json
import math
import re
from functools import cache
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
from .fqf import FiniteQuadraticForm, trivial_form


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

def _cartan_A(k: int) -> IntMatrix:
    return as_matrix(
        [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(k)] for i in range(k)]
    )


def _cartan_D(h: int) -> IntMatrix:
    # chain 0..h-3 with both h-2 and h-1 attached to node h-3
    m = [[0] * h for _ in range(h)]
    for i in range(h):
        m[i][i] = 2
    for i in range(h - 3):
        m[i][i + 1] = m[i + 1][i] = -1
    m[h - 3][h - 2] = m[h - 2][h - 3] = -1
    m[h - 3][h - 1] = m[h - 1][h - 3] = -1
    return as_matrix(m)


def _cartan_E(l: int) -> IntMatrix:
    # chain 0..l-2 with node l-1 attached to node 2 (Bourbaki E-shape)
    m = [[0] * l for _ in range(l)]
    for i in range(l):
        m[i][i] = 2
    for i in range(l - 2):
        m[i][i + 1] = m[i + 1][i] = -1
    m[2][l - 1] = m[l - 1][2] = -1
    return as_matrix(m)


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
        return scale(_cartan_A(k), -1)
    if atom[0] == "D" and atom[1:].isdigit():
        h = int(atom[1:])
        if h < 4:
            raise InvalidParameter("D_h needs h >= 4")
        return scale(_cartan_D(h), -1)
    if atom in ("E6", "E7", "E8"):
        return scale(_cartan_E(int(atom[1])), -1)
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

class Lattice:
    """Even nondegenerate lattice given by an exact integer Gram matrix.

    Immutable; equality and hashing go by (gram, expr).  The determinant,
    computed once for the degeneracy check, is kept for det(); the signature
    is computed on first use and kept.  Neither takes part in equality,
    hashing, repr or pickling."""

    __slots__ = ("gram", "expr", "_det", "_sig", "_realized")

    def __init__(self, gram: IntMatrix, expr: LatticeExpr | None = None):
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
        for name, value in zip(self.__slots__, (g, expr, det, None, False)):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(
        cls, gram: IntMatrix, expr: LatticeExpr, det: int, sig: tuple[int, int]
    ) -> "Lattice":
        """Wrap the block sum `realize` assembles from catalog atoms, without
        the checks of __init__, with its determinant and signature given.

        Each atom passed those checks once, in `atom_data`.  A block diagonal
        matrix of square blocks is symmetric iff each block is (its transpose
        is the block sum of the transposes), its diagonal is the blocks'
        diagonals, its determinant is the product of theirs and, the sum
        being orthogonal, its signature is the sum of theirs.  So the sum of
        even, symmetric, nondegenerate blocks is one too, with det and sig
        as `realize` computes them."""
        lattice = object.__new__(cls)
        for name, value in zip(cls.__slots__, (gram, expr, det, sig, True)):
            object.__setattr__(lattice, name, value)
        return lattice

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

    def __reduce__(self):  # copy and pickle rebuild the way the lattice was built
        if self._realized:
            return (realize, (self.expr,))
        return (Lattice, (self.gram, self.expr))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return self._det

    def signature(self) -> tuple[int, int]:
        if self._sig is None:
            sig = signature_of_symmetric(self.gram) if self.rank else (0, 0)
            object.__setattr__(self, "_sig", sig)
        return self._sig

    def name(self) -> str:
        return render_expr(self.expr) if self.expr else f"rank-{self.rank} lattice"


class AtomData(NamedTuple):
    """One twisted catalog atom: Gram matrix, determinant, signature and
    discriminant form (the Smith-form route's, on the atom's own Gram)."""

    gram: IntMatrix
    det: int
    signature: tuple[int, int]
    form: FiniteQuadraticForm


@cache
def atom_data(atom: str, twist: int) -> AtomData:
    """The data of atom(twist), built once per process through the validating
    Lattice and discriminant_data, so every check runs once per atom."""
    if atom in ("E6*", "A4*"):  # Gram e·G^-1 of E6 resp. A4, over e
        base, den = _scaled_inverse(_atom_base_gram(atom[:-1]))
    else:
        base, den = _atom_base_gram(atom), 1
    if any(twist * x % den for row in base for x in row):
        raise InvalidParameter(f"{atom}({twist}) is not an integral lattice")
    gram = [[twist * x // den for x in row] for row in base]
    if any(gram[i][i] % 2 for i in range(len(gram))):
        raise InvalidParameter(f"{atom}({twist}) is not even")
    lattice = Lattice(gram)
    return AtomData(
        lattice.gram, lattice.det(), lattice.signature(), discriminant_data(lattice).form
    )


def realize(expr: LatticeExpr | str) -> Lattice:
    """The lattice of a catalog expression: the block sum of its atoms, with
    det the product of the atoms' dets and signature the sum of theirs."""
    if isinstance(expr, str):
        expr = parse_expr(expr)
    blocks = []
    det, plus, minus = 1, 0, 0
    for atom, twist, mult in expr.summands:
        if mult < 1:
            raise InvalidParameter(f"bad multiplicity {mult} of {atom}({twist})")
        data = atom_data(atom, twist)
        blocks.extend([data.gram] * mult)
        det *= data.det**mult
        plus += data.signature[0] * mult
        minus += data.signature[1] * mult
    return Lattice._trusted(block_diag(blocks), expr, det, (plus, minus))


def catalog(kind: str, **params) -> Lattice:
    """Named catalog lattices: U, A(k), D(h), E(l), span(n), K(p), H(p), L17,
    E6dual3, A4dual5."""
    kind = kind.upper() if len(kind) == 1 else kind
    if kind == "U":
        return realize(LatticeExpr((("U", 1, 1),)))
    if kind == "A":
        return realize(LatticeExpr(((f"A{params['k']}", 1, 1),)))
    if kind == "D":
        return realize(LatticeExpr(((f"D{params['h']}", 1, 1),)))
    if kind == "E":
        l = params["l"]
        if l not in (6, 7, 8):
            raise InvalidParameter("E_l needs l in {6, 7, 8}")
        return realize(LatticeExpr(((f"E{l}", 1, 1),)))
    if kind in ("span", "SPAN"):
        return realize(LatticeExpr(((f"<{params['n']}>", 1, 1),)))
    if kind == "K":
        return realize(LatticeExpr(((f"K{params['p']}", 1, 1),)))
    if kind == "H":
        return realize(LatticeExpr(((f"H{params['p']}", 1, 1),)))
    if kind == "L17":
        return realize(LatticeExpr((("L17", 1, 1),)))
    if kind == "E6dual3":
        return realize(LatticeExpr((("E6*", 3, 1),)))
    if kind == "A4dual5":
        return realize(LatticeExpr((("A4*", 5, 1),)))
    raise InvalidParameter(f"unknown catalog kind {kind!r}")


def direct_sum(*lattices: Lattice) -> Lattice:
    expr = None
    if all(l.expr is not None for l in lattices):
        summands = []
        for l in lattices:
            summands.extend(l.expr.summands)
        expr = LatticeExpr(tuple(summands))
    return Lattice(block_diag([l.gram for l in lattices]), expr=expr)


def twist(lattice: Lattice, t: int) -> Lattice:
    if t == 0:
        raise InvalidParameter("twist by zero")
    expr = None
    if lattice.expr is not None:
        expr = LatticeExpr(tuple((a, tw * t, m) for a, tw, m in lattice.expr.summands))
    return Lattice(scale(lattice.gram, t), expr=expr)


AMBIENT_SIGNATURE = (3, 20)


def ambient_lattice() -> Lattice:
    """The rank-23 lattice U^3 + E8^2 + <-2> (second cohomology of a K3^[2] fourfold)."""
    return realize("U^3 + E8^2 + <-2>")


# -- discriminant data ------------------------------------------------------------

class DiscriminantData(NamedTuple):
    """Discriminant group of a lattice: invariant factors d_i, generators as the
    integer columns v_i (the dual vector x_i = v_i / d_i in the lattice basis),
    and the quadratic form."""

    invariant_factors: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    form: FiniteQuadraticForm


def _dot(dense, support) -> int:
    """dense·v for a vector v given by its nonzero entries (index, value)."""
    return sum(dense[r] * x for r, x in support)


def discriminant_data(lattice: Lattice) -> DiscriminantData:
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
    g = lattice.gram
    n = lattice.rank
    if n == 0:
        return DiscriminantData((), (), trivial_form())
    all_factors, v = smith_normal_form(g, lattice.det())
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
    return DiscriminantData(factors, tuple(cols), FiniteQuadraticForm(factors, q_vals, b_rows))


def discriminant_form(lattice: Lattice) -> FiniteQuadraticForm:
    """The discriminant form of the lattice.

    For a lattice `realize` built, the orthogonal sum of its atoms' forms:
    the dual of an orthogonal sum is the sum of the duals, so A_{L+M} =
    A_L + A_M and q_{L+M} = q_L + q_M (Nikulin 1979, §1).  Any other lattice
    takes the Smith-form route of `discriminant_data`.  The two forms are
    isomorphic, not equal: they sit on different generators."""
    if not lattice._realized:
        return discriminant_data(lattice).form
    form = trivial_form()
    for atom, twist, mult in lattice.expr.summands:
        atom_form = atom_data(atom, twist).form
        if atom_form.orders:
            for _ in range(mult):
                form = form.dsum(atom_form)
    return form


def is_p_elementary(lattice: Lattice, p: int) -> tuple[bool, int | None]:
    """Whether the discriminant group is (Z/p)^a, i.e. every generator of
    the discriminant form has order p; returns (verdict, a)."""
    orders = discriminant_form(lattice).orders
    if all(d == p for d in orders):
        return True, len(orders)
    return False, None


# -- JSON interface ----------------------------------------------------------------

def lattice_from_json(text: str) -> Lattice:
    """Read {"gram": [[...], ...], "name": "optional expr string"}."""
    try:
        data = json.loads(text)
        gram = data["gram"]
        expr = parse_expr(data["name"]) if data.get("name") else None
    except (KeyError, TypeError, AttributeError, json.JSONDecodeError) as exc:
        raise InvalidParameter(f"malformed lattice JSON: {exc!r}") from exc
    lattice = Lattice(as_matrix(gram), expr=expr)
    if expr is not None and realize(expr).gram != lattice.gram:
        raise InvalidParameter(f"name {render_expr(expr)!r} does not match the Gram matrix")
    return lattice

