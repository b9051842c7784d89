"""Cover group through the enumerated group itself: the oracle for the table-read kernel.

``regular_group`` closes the orbifold group on the right Cayley table a
completed enumeration is, and ``parity_classes`` colors its cosets by a
depth-first search.  ``branched_cover_group`` then forms the Schreier
elements g * t^-1 and t * g with ``FiniteGroup.imul`` and closes the
index-2 parity kernel as a subgroup of that group, by products in it.
The library reads the same kernel straight off the coset table; the
tests compare the two on order, abelianization, derived series and the
kernel's own Cayley table.
"""

from spherecover.errors import InternalInconsistency, NotIndexTwo, ValidationError
from spherecover.groups import FiniteGroup


def regular_group(table):
    """The enumerated group itself: a completed table is its right Cayley table."""
    if not table.finite:
        raise ValidationError("a group needs a completed enumeration")
    perms = table.perms
    return FiniteGroup.closure(0, len(perms), lambda c, g: perms[g][c], table.order)


def parity_classes(outcome):
    """2-coloring of cosets by meridian parity; None when not bipartite."""
    n = outcome.order
    perms = outcome.perms
    color = [-1] * n
    color[0] = 0
    frontier = [0]
    while frontier:
        c = frontier.pop()
        for perm in perms:
            d = perm[c]
            if color[d] == -1:
                color[d] = color[c] ^ 1
                frontier.append(d)
            elif color[d] != color[c] ^ 1:
                return None
    return color


def subgroup(group, idxs):
    """The subgroup of ``group`` generated by ``idxs``, as a group in its own right.

    Only the generators that enlarge the closure are kept; the new group's
    elements are their indices in ``group``.
    """
    _, kept = group._closure_incremental(idxs)
    return FiniteGroup.closure(
        group.identity_idx, len(kept), lambda x, s: group.imul(x, kept[s]), len(group)
    )


def branched_cover_group(outcome):
    """(order, kernel) of the meridian parity map, closed by products in the regular group."""
    group = regular_group(outcome)
    if parity_classes(outcome) is None:
        raise NotIndexTwo("meridian parity map is not onto Z/2")
    gens = group.gens_idx
    t = gens[0]
    t_inv = group.inverse[t]
    schreier = [x for g in gens for x in (group.imul(g, t_inv), group.imul(t, g))]
    kernel = subgroup(group, schreier)
    if 2 * len(kernel) != len(group):
        raise InternalInconsistency("parity kernel must have index two")
    return len(kernel), kernel
