"""Tietze reduction with relator-tuple cache keys: the reduced-presentation oracle.

This is the library's ``bridge_presentation`` before its caches were keyed
by small integers: the eliminations are cached by relator tuple and the
substitutions by (relator, generator, value).  Both re-evaluate every
candidate elimination at every step under the same choice rule, ties and
dedupe, so the tests require them to return equal presentations.
"""

from spherecover.errors import InternalInconsistency
from spherecover.presentations import GroupPresentation, cyclic_reduce

MAX_RELATOR_LENGTH = 128  # Tietze elimination stops before a longer relator


def _inverse(word):
    return tuple(-l for l in reversed(word))


def _eliminations(rel):
    """Generators of ``rel``, and (c, value, value^-1) for each c occurring once.

    Rotating ``rel`` to c^e u gives c = u^-e.
    """
    counts = {}
    for l in rel:
        counts[abs(l)] = counts.get(abs(l), 0) + 1
    out = []
    for j, l in enumerate(rel):
        if counts[abs(l)] == 1:
            rest = rel[j + 1:] + rel[:j]
            value = _inverse(rest) if l > 0 else rest
            out.append((abs(l), value, _inverse(value)))
    return counts.keys(), out


def _substitute(rel, c, value, inverse):
    """Cyclically reduced ``rel`` with generator c replaced by ``value``."""
    out = []
    for l in rel:
        if l == c or l == -c:
            piece = value if l == c else inverse
            k = 0
            while k < len(piece) and out and out[-1] == -piece[k]:
                out.pop()
                k += 1
            out.extend(piece[k:])
        elif out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    i, j = 0, len(out)
    while j - i >= 2 and out[i] == -out[j - 1]:
        i, j = i + 1, j - 1
    return tuple(out[i:j])


def bridge_presentation(pres):
    """Tietze-eliminate generators that occur once in a relator.

    A relator in which generator c occurs exactly once, rotated to c^e u,
    gives c = u^-e.  Each step substitutes for the c whose substitution
    leaves the least total relator length after free and cyclic reduction
    (ties: lower generator, then earlier relator), drops that relator and
    any empty or repeated one.  The pass stops when no generator occurs
    once in a relator, or when the next step would leave a relator longer
    than MAX_RELATOR_LENGTH.  Survivors keep their original order, so on a
    Wirtinger presentation every generator left is an arc, i.e. a meridian.
    """
    rels = list(dict.fromkeys(r for r in map(cyclic_reduce, pres.relators) if r))
    survivors = list(range(1, pres.ngens + 1))
    # Cached across steps, because most relators survive a step unchanged.
    eliminations, substituted = {}, {}
    while True:
        holders = {}
        for k, rel in enumerate(rels):
            if rel not in eliminations:
                eliminations[rel] = _eliminations(rel)
            for g in eliminations[rel][0]:
                holders.setdefault(g, []).append(k)
        best = None
        for i, rel in enumerate(rels):
            for g, value, inverse in eliminations[rel][1]:
                total = -len(rel)
                for k in holders[g]:
                    if k != i:
                        key = (rels[k], g, value)
                        if key not in substituted:
                            substituted[key] = _substitute(rels[k], g, value, inverse)
                        total += len(substituted[key]) - len(rels[k])
                if best is None or (total, g, i) < best[0]:
                    best = (total, g, i), value
        if best is None:
            break
        (_, g, i), value = best
        new = [substituted.get((s, g, value), s) for s in rels[:i] + rels[i + 1:]]
        if max(map(len, new), default=0) > MAX_RELATOR_LENGTH:
            break
        survivors.remove(g)
        rels = list(dict.fromkeys(r for r in new if r))
    if not {abs(l) for r in rels for l in r} <= set(survivors):
        raise InternalInconsistency("Tietze survivors must be original generators")
    index = {g: j for j, g in enumerate(survivors, start=1)}
    return GroupPresentation.make(
        len(survivors),
        [tuple(index[l] if l > 0 else -index[-l] for l in r) for r in rels],
    )
