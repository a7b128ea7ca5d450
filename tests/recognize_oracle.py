"""The budgeted catalog search that `hklat.lattices.recognize` replaced, for
tests only.

It walks the multisets of pool terms with the target's rank and signature,
fewest summands first and lexicographic in pool index within a count, and
returns the first whose |det| is |A_T| and whose discriminant form has the
target's normal key; after `budget` summands it gives up and returns None.
`terms` replaces the pool terms `hklat.lattices._pool_terms(target)`.
"""

import math

from fqf_oracle import trivial_form
from hklat.fqf import normal_key
from hklat.lattices import LatticeExpr, _pool_terms, atom_data


def recognize(target, budget=9, terms=None):
    if terms is None:
        terms = _pool_terms(target)
    pool = [(term, atom_data(*term)) for term in terms]
    want_det = target.form.order
    want_sig = (target.s_plus, target.s_minus)
    want_rank = target.rank
    if want_rank == 0:
        return LatticeExpr(())

    want_key = normal_key(target.form)
    for count in range(1, budget + 1):
        for combo in signature_combos(pool, count, want_rank, want_sig, want_det):
            if abs(math.prod(data.det for _, data in combo)) != want_det:
                continue
            form = trivial_form()
            for _, data in combo:
                form = form.dsum(data.form)
            if normal_key(form) == want_key:
                return combo_to_expr(combo)
    return None


def signature_combos(pool, count, want_rank, want_sig, want_det):
    """Multisets of `count` pool terms with the exact total rank and signature,
    in the order of the unpruned walk, less those whose |det| cannot be
    want_det: a term whose |det| does not divide what is left of want_det is
    skipped, as every |det| is a positive integer."""
    n = len(pool)
    ranks = [len(data.gram) for _, data in pool]
    dets = [abs(data.det) for _, data in pool]
    suffix_min = [0] * (n + 1)
    suffix_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_min[i] = min(ranks[i], suffix_min[i + 1] or ranks[i])
        suffix_max[i] = max(ranks[i], suffix_max[i + 1])

    def rec(start, left, rank_left, plus_left, minus_left, det_left, acc):
        if left == 0:
            if rank_left == 0 and plus_left == 0 and minus_left == 0:
                yield list(acc)
            return
        for i in range(start, n):
            r = ranks[i]
            if r + (left - 1) * suffix_min[i] > rank_left:
                continue
            if r + (left - 1) * suffix_max[i] < rank_left:
                continue
            sp, sm = pool[i][1].signature
            if sp > plus_left or sm > minus_left or det_left % dets[i]:
                continue
            acc.append(pool[i])
            yield from rec(
                i, left - 1, rank_left - r, plus_left - sp, minus_left - sm,
                det_left // dets[i], acc,
            )
            acc.pop()

    yield from rec(0, count, want_rank, want_sig[0], want_sig[1], want_det, [])


def combo_to_expr(combo):
    counts = {}
    for term, _ in combo:
        counts[term] = counts.get(term, 0) + 1
    return LatticeExpr(tuple((atom, tw, mult) for (atom, tw), mult in counts.items()))
