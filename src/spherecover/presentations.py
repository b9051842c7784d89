"""Finitely presented groups: Wirtinger data, coset enumeration, covers.

The enumerator is the relator-based (HLT) strategy in one pass: every live
coset is scanned against every relator, gaps are filled by defining new
cosets, and coincidences are merged through a union-find with table
migration.  The coset table is one flat list in which every entry is the
base offset of a coset's row, so following an edge is one index.  A
generator whose square is a relator (every meridian of an orbifold
quotient) is one self-inverse column, so its square holds by construction
and is certified, not scanned; any other generator has a column for itself
and one for its inverse.  A completed table is compacted
once and certified post hoc -- all relators, squares included, trace to the
identity from every coset and the action is transitive -- before an order
is reported.  The first definition that would exceed the coset cap
(counted in live cosets) ends the run at once, with a table without an
order, never a guess.

The double-branched-cover group of a knot is the index-2 kernel of the
meridian parity map on the orbifold quotient (knot group modulo meridian
squares).  The knot group enters through its Wirtinger presentation,
Tietze-reduced by ``bridge_presentation`` to a few arc generators, all of
them meridians.  A completed table is the right regular action of the
orbifold group, so the kernel is read off it alone: each Schreier generator
g t^-1 or t g acts on cosets as the composition of two table columns, and
the kernel is closed on those integer maps.  No product in the orbifold
group is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistency, NotIndexTwo, ValidationError
from .groups import FiniteGroup, greedy_closure

DEFAULT_COSET_CAP = 200_000
MAX_RELATOR_LENGTH = 128  # Tietze elimination stops before a longer relator


def free_reduce(word):
    out = []
    for letter in word:
        if letter == 0:
            raise ValidationError("generator index 0 is not allowed")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclic_reduce(word):
    word = list(free_reduce(word))
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return tuple(word)


@dataclass(frozen=True)
class GroupPresentation:
    """Generators 1..ngens and freely reduced relator words."""

    ngens: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.ngens < 0:
            raise ValidationError(f"generator count {self.ngens} is negative")
        for rel in self.relators:
            for letter in rel:
                if letter == 0 or abs(letter) > self.ngens:
                    raise ValidationError(f"relator letter {letter} out of range")
            if free_reduce(rel) != rel:
                raise ValidationError(f"relator {rel!r} is not freely reduced")

    @classmethod
    def make(cls, ngens, relators):
        return cls(ngens, tuple(free_reduce(r) for r in relators))


# -- knot presentations -----------------------------------------------------------


def wirtinger(diagram):
    """Arc-meridian presentation: one generator per arc, one relation per crossing.

    At a crossing with sign s, over-arc w, under-in a and under-out c the
    relator is w^s a w^-s c^-1; one redundant relator is dropped.
    """
    arcs = diagram.arc_of_edge
    ngens = diagram.arc_count
    relators = []
    for cr in diagram.crossings:
        w = arcs[cr.over_edges[0]] + 1
        a = arcs[cr.under_in] + 1
        c = arcs[cr.under_out] + 1
        s = cr.sign
        relators.append(free_reduce((s * w, a, -s * w, -c)))
    if relators:
        relators = relators[:-1]
    return GroupPresentation.make(ngens, [r for r in relators if r])


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
    # Each distinct relator gets an id when it first appears, and its
    # generators and candidate eliminations are read once.  Substitutions
    # are cached by relator id per candidate id, because most relators
    # survive a step unchanged.
    ids, words, held, candidates, substituted = {}, [], [], [], []

    def distinct_ids(rels):
        out = []
        for rel in rels:
            if rel:
                rid = ids.get(rel)
                if rid is None:
                    rid = ids[rel] = len(words)
                    gens, eliminations = _eliminations(rel)
                    words.append(rel)
                    held.append(gens)
                    own = []
                    for c, value, inverse in eliminations:
                        own.append((c, len(substituted), value, inverse))
                        substituted.append({})
                    candidates.append(own)
                out.append(rid)
        return list(dict.fromkeys(out))

    survivors = list(range(1, pres.ngens + 1))
    rels = distinct_ids(map(cyclic_reduce, pres.relators))
    while True:
        holders = {}
        for k, rid in enumerate(rels):
            for g in held[rid]:
                holders.setdefault(g, []).append(k)
        best = None
        for i, rid in enumerate(rels):
            for g, cid, value, inverse in candidates[rid]:
                cache = substituted[cid]
                total = -len(words[rid])
                for k in holders[g]:
                    if k != i:
                        other = rels[k]
                        word = cache.get(other)
                        if word is None:
                            word = cache[other] = _substitute(words[other], g, value, inverse)
                        total += len(word) - len(words[other])
                if best is None or (total, g, i) < best[0]:
                    best = (total, g, i), cid
        if best is None:
            break
        (_, g, i), cid = best
        cache = substituted[cid]
        new = [cache.get(rid, words[rid]) for rid in rels[:i] + rels[i + 1:]]
        if max(map(len, new), default=0) > MAX_RELATOR_LENGTH:
            break
        survivors.remove(g)
        rels = distinct_ids(new)
    rels = [words[rid] for rid in rels]
    if not {abs(l) for r in rels for l in r} <= set(survivors):
        raise InternalInconsistency("Tietze survivors must be original generators")
    index = {g: j for j, g in enumerate(survivors, start=1)}
    return GroupPresentation.make(
        len(survivors),
        [tuple(index[l] if l > 0 else -index[-l] for l in r) for r in rels],
    )


def orbifold_quotient(pres):
    """Adjoin the square of every generator (meridian) as a relator."""
    extra = [(i, i) for i in range(1, pres.ngens + 1)]
    return GroupPresentation.make(pres.ngens, list(pres.relators) + extra)


# -- coset enumeration -------------------------------------------------------------


@dataclass(frozen=True)
class CosetTable:
    """Regular action of a completed enumeration, or the cap it hit.

    ``perms[g][c]`` is the coset of c times generator g; a capped
    enumeration has neither ``order`` nor ``perms``.
    """

    cap: int
    order: int | None = None
    perms: tuple | None = None

    @property
    def finite(self):
        return self.perms is not None


class _Enumerator:
    def __init__(self, pres, cap):
        self.ngens = pres.ngens
        self.cap = cap
        self.relators = [r for r in map(cyclic_reduce, pres.relators) if r]
        squares = {r for r in self.relators if len(r) == 2 and r[0] == r[1]}
        involutions = {abs(r[0]) for r in squares}
        # A squared generator gets one self-inverse column, any other
        # generator g a column for g and the next one for g^-1.
        col, inv = {}, []
        for g in range(1, pres.ngens + 1):
            c = col[g] = len(inv)
            if g in involutions:
                col[-g] = c
                inv.append(c)
            else:
                col[-g] = c + 1
                inv += [c + 1, c]
        self.col, self.inv, self.ncols = col, inv, len(inv)
        # The squares hold by construction of their columns, so only the
        # certificate reads them; each word is scanned forwards in its
        # columns and backwards in their inverses, from its last index.
        # ``stepwise`` marks a word with a letter that a fresh coset, made by
        # its predecessor, can already follow (g g on a self-inverse column).
        self.words = []
        for rel in self.relators:
            if rel not in squares:
                word = tuple(col[l] for l in rel)
                back = tuple(inv[x] for x in word)
                stepwise = any(word[k] == back[k - 1] for k in range(1, len(word)))
                self.words.append((word, back, len(word) - 1, stepwise))
        # Coset c owns entries c*ncols .. c*ncols + ncols - 1 of one flat
        # table, and a defined entry holds the base offset of its coset.
        self.table = [-1] * self.ncols
        self.p = [0]
        self.dead = 0

    def rep(self, k):
        p = self.p
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def _merge(self, a, b, queue):
        """Merge the cosets at offsets a and b; queue the one that dies."""
        a, b = self.rep(a // self.ncols), self.rep(b // self.ncols)
        if a != b:
            if a > b:
                a, b = b, a
            self.p[b] = a
            self.dead += 1
            queue.append(b)

    def _coincidence(self, a, b):
        """Merge the cosets at offsets a and b, and every pair that forces."""
        table, inv, n = self.table, self.inv, self.ncols
        queue = []
        self._merge(a, b, queue)
        while queue:
            gamma = queue.pop()
            row = gamma * n
            for x, y in enumerate(inv):
                delta = table[row + x]
                if delta == -1:
                    continue
                table[delta + y] = -1
                mu = self.rep(gamma) * n
                nu = self.rep(delta // n) * n
                if table[mu + x] != -1:
                    self._merge(nu, table[mu + x], queue)
                elif table[nu + y] != -1:
                    self._merge(mu, table[nu + y], queue)
                else:
                    table[mu + x] = nu
                    table[nu + y] = mu

    def run(self):
        """Scan each live coset under every relator, then fill its row's gaps.

        Each relator word is traced from the coset both ways, forwards in
        ``word`` and backwards in ``back`` (the inverse column of each
        letter), and a gap of j - i letters is filled by defining j - i new
        cosets along the word, then deducing the entry at j.  A fresh coset
        has one entry, back to its predecessor, and the cosets on the
        backward trace gain none, so neither trace can move inside the gap;
        the gap is filled in one pass, in the order one definition per scan
        would make.  A fresh coset extends a trace only when the gap's first
        definition is the backward trace's next step (b == f and back[j] ==
        word[i]), or in a ``stepwise`` word; there one coset is defined and
        both traces run again.  The first definition that would make
        ``cap`` live cosets ends the run; no coincidence can occur inside a
        gap, so a gap that would pass the cap ends it before any of its
        definitions.
        """
        table, p, inv, n = self.table, self.p, self.inv, self.ncols
        blank = [-1] * n
        # ``top`` cosets are defined, the next one starts at offset ``nxt``,
        # and a definition is refused once top - dead live cosets reach cap.
        limit = self.cap
        top, nxt = 1, n
        alpha = 0
        while alpha < top:
            if p[alpha] == alpha:
                row = alpha * n
                for word, back, last, stepwise in self.words:
                    f, i = row, 0
                    b, j = row, last
                    while True:
                        while i <= j and (e := table[f + word[i]]) != -1:
                            f = e
                            i += 1
                        if i > j:
                            if f != b:
                                self._coincidence(f, b)
                                limit = self.cap + self.dead
                            break
                        while j >= i and (e := table[b + back[j]]) != -1:
                            b = e
                            j -= 1
                        if j < i:
                            self._coincidence(f, b)
                            limit = self.cap + self.dead
                            break
                        if j > i:
                            step = stepwise or (b == f and back[j] == word[i])
                            count = 1 if step else j - i
                            if top + count > limit:
                                return CosetTable(self.cap)
                            p.extend(range(top, top + count))
                            top += count
                            table += blank * count
                            for k in range(i, i + count):
                                table[f + word[k]] = nxt
                                table[nxt + back[k]] = f
                                f = nxt
                                nxt += n
                            if step:
                                i += 1
                                continue
                        table[f + word[j]] = b
                        table[b + back[j]] = f
                        break
                    if p[alpha] != alpha:
                        break
                else:
                    for x in range(n):
                        if table[row + x] == -1:
                            if top >= limit:
                                return CosetTable(self.cap)
                            p.append(top)
                            top += 1
                            table += blank
                            table[row + x] = nxt
                            table[nxt + inv[x]] = row
                            nxt += n
            alpha += 1
        return self._complete()

    def _complete(self):
        """Renumber the live cosets 0..n-1 in order, then certify the table."""
        n, p, table = self.ncols, self.p, self.table
        live = [c for c, r in enumerate(p) if r == c]
        # index[c] is the new number of c's live representative; the extra
        # last slot is index[-1 // n], so an empty entry stays -1
        index = [-1] * (len(p) + 1)
        for new, old in enumerate(live):
            index[old] = new
        for c, r in enumerate(p):
            if r != c:
                index[c] = index[self.rep(c)]
        rows = [old * n for old in live]
        perms = []
        for g in range(1, self.ngens + 1):
            col = self.col[g]
            perms.append(tuple([index[table[row + col] // n] for row in rows]))
        table = CosetTable(self.cap, len(live), tuple(perms))
        if not certify_table(table, self.relators):
            raise InternalInconsistency("completed coset table fails its certificate")
        return table


def _search(perms, n):
    """Breadth-first search of a coset table from coset 0.

    Returns the cosets in the order it reaches them and, per coset, the
    parity of its depth (-1 where unreached).  A permutation's inverse is
    one of its powers, so the columns alone reach the whole orbit.
    """
    parity = [-1] * n
    parity[0] = 0
    order = [0]
    for c in order:
        flip = parity[c] ^ 1
        for perm in perms:
            d = perm[c]
            if parity[d] < 0:
                parity[d] = flip
                order.append(d)
    return order, parity


def certify_table(table, relators):
    """Closed-table certificate: bijectivity, transitivity, relator identity.

    Each column must be a permutation of 0..n-1: of length n, every entry
    in range, no entry repeated.  Every relator is traced from all cosets
    at once, one letter at a time; a letter naming no column fails it.
    """
    if not table.finite or table.order < 1:
        return False
    n = table.order
    perms = table.perms
    steps = {}
    for g, perm in enumerate(perms, 1):
        if len(perm) != n or min(perm) < 0 or max(perm) >= n:
            return False
        ip = [-1] * n
        for i, v in enumerate(perm):
            ip[v] = i
        if -1 in ip:  # n entries in range miss a value only if one repeats
            return False
        steps[g], steps[-g] = perm, ip
    if len(_search(perms, n)[0]) != n:  # transitivity
        return False
    cosets = list(range(n))
    for rel in relators:
        ends = cosets
        for letter in rel:
            step = steps.get(letter)
            if step is None:
                return False
            ends = [step[c] for c in ends]
        if ends != cosets:
            return False
    return True


def todd_coxeter(pres, cap=DEFAULT_COSET_CAP):
    """Enumerate cosets of the trivial subgroup; deterministic HLT strategy."""
    if cap < 1:
        raise ValidationError("coset cap must be >= 1")
    return _Enumerator(pres, cap).run()


# -- groups read off coset tables -----------------------------------------------------


def branched_cover_group(outcome):
    """Index-2 kernel of the meridian parity map, closed on the coset table.

    Returns (order, FiniteGroup).  Cosets are colored by parity along a
    breadth-first search, and every column must swap the colors.  The
    kernel is generated by the Schreier elements g * t^-1 and t * g over
    the transversal {identity, t}, with t the first generator.  A
    completed table is the regular action, so a Schreier element acts on
    cosets as the composition of two columns, and the coset it takes 0 to
    names it.  They are taken in search order, the order in which closure
    on the table finds the elements of the orbifold group; those that
    enlarge the kernel are kept (:func:`~spherecover.groups.greedy_closure`),
    and the kernel is closed on their actions.  Its elements are cosets,
    and x * k is the action of k on x.
    """
    if not outcome.finite:
        raise ValidationError("a group needs a completed enumeration")
    n, perms = outcome.order, outcome.perms
    order, color = _search(perms, n)
    flipped = [c ^ 1 for c in color]
    if not perms or any([color[d] for d in perm] != flipped for perm in perms):
        raise NotIndexTwo("meridian parity map is not onto Z/2")
    t = perms[0]
    tinv = [0] * n
    for x, y in enumerate(t):
        tinv[y] = x
    actions = {}
    for g in perms:
        for action in ([tinv[y] for y in g], [g[y] for y in t]):
            actions.setdefault(action[0], action)
    _, kept = greedy_closure(sorted(actions, key=order.index), lambda x, k: actions[k][x], n)
    kernel = FiniteGroup.map_closure([actions[k] for k in kept], n)
    if 2 * len(kernel) != n:
        raise InternalInconsistency("parity kernel must have index two")
    return len(kernel), kernel
