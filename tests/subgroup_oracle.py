"""Subgroups the way the group engine once found them: the oracle for derived series.

Every function takes a ``FiniteGroup`` and reads only its products
(``imul``), inverses and generators.  ``derived_subgroup(group, sub)``
computes [H, H] inside H = ``sub``: a greedy generating set of H, the
commutators of its generators, their closure under conjugation by those
generators, one product at a time, and the subgroup they generate.  The
library takes the normal closure in G of the commutators instead, by table
lookups; the tests compare the two on every derived term and on the normal
closure of every conjugacy class.
"""

from spherecover.errors import InternalInconsistency


def conjugation_closure(group, seed, by=None):
    """Close a set of indices, in place, under x -> g^-1 x g for g in ``by``.

    By default g runs over the generators, where conjugation is four
    table lookups: s^-1 x s = ((x^-1 s)^-1) s.
    """
    inverse = group.inverse
    if by is None:
        maps = [lambda x, c=col: c[inverse[c[inverse[x]]]] for col in group.right]
    else:
        maps = [lambda x, g=g: group.imul(group.imul(inverse[g], x), g) for g in by]
    queue = list(seed)
    while queue:
        x = queue.pop()
        for conj in maps:
            y = conj(x)
            if y not in seed:
                seed.add(y)
                queue.append(y)
    return seed


def closure_incremental(group, idxs):
    """Closure that keeps only non-redundant generators; returns (set, gens).

    A subgroup of order more than |G|/2 is G itself (Lagrange), which
    lets the final growth round stop early.
    """
    seed = sorted({group._as_index(i) for i in idxs})
    members = {group.identity_idx}
    kept = []
    whole = len(group.elements)
    for s in seed:
        if s in members:
            continue
        kept.append(s)
        queue = list(members)
        while queue:
            x = queue.pop()
            for g in kept:
                y = group.imul(x, g)
                if y not in members:
                    members.add(y)
                    queue.append(y)
            if 2 * len(members) > whole:
                return set(range(whole)), kept
    return members, kept


def check_lagrange(group, idxs):
    if len(group) % len(idxs):
        raise InternalInconsistency(
            f"subgroup order {len(idxs)} does not divide group order {len(group)}"
        )
    return idxs


def subgroup_closure(group, idxs):
    """Smallest subgroup containing the given indices."""
    return check_lagrange(group, tuple(sorted(closure_incremental(group, idxs)[0])))


def normal_closure(group, idxs):
    """Smallest normal subgroup containing the given elements/indices."""
    seed = conjugation_closure(group, {group._as_index(i) for i in idxs})
    return subgroup_closure(group, seed)


def small_generating_set(group, idxs):
    """Greedy small generating subset of a subgroup's element list."""
    members, kept = closure_incremental(group, idxs)
    if members != {group._as_index(i) for i in idxs} | {group.identity_idx}:
        raise InternalInconsistency("input was not a subgroup")
    return kept or [group.identity_idx]


def derived_subgroup(group, sub=None):
    """Commutator subgroup of G, or of the subgroup ``sub``."""
    gens = group.gens_idx if sub is None else small_generating_set(group, sub)
    by = None if sub is None else gens
    inverse = group.inverse
    commutators = {
        group.imul(group.imul(a, b), group.imul(inverse[a], inverse[b]))
        for a in gens
        for b in gens
    }
    # normal closure inside the subgroup generated by gens
    result = subgroup_closure(group, conjugation_closure(group, commutators, by))
    members = set(result)
    if conjugation_closure(group, set(members), by) != members:
        raise InternalInconsistency("derived subgroup is not normal")
    return result


def derived_series(group):
    """Subgroup chain G >= G' >= G'' >= ... until it stabilizes."""
    series = [tuple(range(len(group)))]
    current = None
    while True:
        nxt = derived_subgroup(group, current)
        if current is not None and set(nxt) == set(current):
            break
        if current is None and len(nxt) == len(group):
            series.append(nxt)
            break
        series.append(nxt)
        current = nxt
        if len(current) == 1:
            break
    return series
