"""Finite group engine on the right Cayley table.

A group is stored as what breadth-first closure of a generating set
computes anyway: its elements in discovery order (identity first), the
right Cayley table ``right[s][x] = x * s`` for every generator ``s``, and
the spanning tree of the search, ``x = parent[x] * gen[x]``.  Left
multiplication by the generators and all inverses follow along the tree
in one pass, made on first use, so products, conjugation, conjugacy
classes, normal closures, derived series and abelianizations run on
integers only.  The same engine drives quaternionic rotation groups and
the groups read off coset tables.  A rotation group multiplies exact
quaternions only while closing its two factor projections, coset by coset
of a cyclic subgroup, with one product per element and per coset edge;
the group itself closes on pairs of factor indices, and its elements then
serve geometry and membership lookups.
"""

from __future__ import annotations

import math
from functools import cached_property

from . import quaternions as qt
from .errors import (
    CapExceeded,
    ConductorMismatch,
    InternalInconsistency,
    InvalidArgument,
    NotMember,
    WrongAmbient,
)
from .linalg import cokernel

DEFAULT_GROUP_CAP = 100_000


class FiniteGroup:
    """A finite group as its element list, right Cayley table and BFS tree."""

    identity_idx = 0

    def __init__(self, elements, right, parent, gen, distinct=False):
        self.elements = list(elements)
        # A closure finds each label once, so it passes ``distinct`` and its
        # group builds no index until a lookup needs one.
        if not distinct and len(self.index) != len(self.elements):
            raise InvalidArgument("duplicate elements in group construction")
        self.right = right
        self.parent = parent
        self.gen = gen

    @cached_property
    def index(self):
        """Position of each element, for lookups by element."""
        return {e: i for i, e in enumerate(self.elements)}

    def _left_column(self, g):
        """Left multiplication by g: g * (p * t) = (g * p) * t follows the tree."""
        right, parent, gen = self.right, self.parent, self.gen
        col = [g] * len(self.elements)
        for x in range(1, len(col)):
            col[x] = right[gen[x]][col[parent[x]]]
        return col

    @cached_property
    def left(self):
        """Left generator columns, one :meth:`_left_column` per generator."""
        return [self._left_column(col[0]) for col in self.right]

    @cached_property
    def inverse(self):
        """(p * t)^-1 = t^-1 * p^-1, with t^-1 * y read off the inverted left column."""
        n = len(self.elements)
        linv = []
        for lcol in self.left:
            icol = [0] * n
            for x, y in enumerate(lcol):
                icol[y] = x
            linv.append(icol)
        inverse = [0] * n
        for x in range(1, n):
            inverse[x] = linv[self.gen[x]][inverse[self.parent[x]]]
        return inverse

    # -- construction -----------------------------------------------------

    @classmethod
    def closure(cls, identity, ngens, product, cap):
        """Breadth-first closure of ``identity`` under ``product(label, s)``.

        Labels are any hashable stand-ins for the elements; generator ``s``
        becomes column ``s`` of the right Cayley table.  Labels that are
        small integers close faster in :meth:`map_closure`.
        """
        index = {identity: 0}
        labels = [identity]
        parent, gen = [-1], [-1]
        right = [[] for _ in range(ngens)]
        x = 0
        while x < len(labels):
            label = labels[x]
            for s, col in enumerate(right):
                p = product(label, s)
                j = index.get(p)
                if j is None:
                    if len(labels) >= cap:
                        raise CapExceeded(cap)
                    j = index[p] = len(labels)
                    labels.append(p)
                    parent.append(x)
                    gen.append(s)
                col.append(j)
            x += 1
        return cls(labels, right, parent, gen, distinct=True)

    @staticmethod
    def map_closure(maps, size):
        """Breadth-first closure of 0 under integer maps of ``range(size)``.

        The same search as :meth:`closure`, with labels indexed in a list
        instead of a dict; map ``s`` becomes column ``s`` of the right
        Cayley table, and the labels are the group's elements.
        """
        index = [-1] * size
        index[0] = 0
        labels = [0]
        parent, gen = [-1], [-1]
        right = [[] for _ in maps]
        cells = list(zip(maps, right))
        x = 0
        while x < len(labels):
            label = labels[x]
            for s, (action, col) in enumerate(cells):
                p = action[label]
                j = index[p]
                if j < 0:
                    j = index[p] = len(labels)
                    labels.append(p)
                    parent.append(x)
                    gen.append(s)
                col.append(j)
            x += 1
        return FiniteGroup(labels, right, parent, gen, distinct=True)

    @classmethod
    def generate(cls, identity, gens, cap=DEFAULT_GROUP_CAP):
        """Breadth-first closure of the generators under exact multiplication.

        It makes one product per table cell.  Rotation groups close their
        factors by cosets instead (:func:`_coset_closure`); the tests
        compare that closure with this one.
        """
        if cap < 1:
            raise InvalidArgument("cap must be >= 1")
        gens = list(gens)
        return cls.closure(identity, len(gens), lambda e, s: e * gens[s], cap)

    # -- index arithmetic ---------------------------------------------------

    def __len__(self):
        return len(self.elements)

    @property
    def order(self):
        return len(self.elements)

    @property
    def gens_idx(self):
        return [col[self.identity_idx] for col in self.right]

    def __contains__(self, element):
        return element in self.index

    def imul(self, i, j):
        # i = parent[i] * gen[i], so i * j = parent[i] * (gen[i] * j)
        left, parent, gen = self.left, self.parent, self.gen
        while i:
            j = left[gen[i]][j]
            i = parent[i]
        return j

    def _as_index(self, g):
        if isinstance(g, int):
            if not 0 <= g < len(self.elements):
                raise NotMember(f"index {g} out of range")
            return g
        idx = self.index.get(g)
        if idx is None:
            raise NotMember(f"{g!r} is not an element of the group")
        return idx

    # -- subgroup machinery ---------------------------------------------------

    def _conjugation_closure(self, seed):
        """Close a set of indices, in place, under conjugation by the generators.

        Conjugation by generator s is four table lookups:
        s^-1 x s = ((x^-1 s)^-1) s.
        """
        inverse, columns = self.inverse, self.right
        queue = list(seed)
        while queue:
            x = queue.pop()
            for col in columns:
                y = col[inverse[col[inverse[x]]]]
                if y not in seed:
                    seed.add(y)
                    queue.append(y)
        return seed

    def conjugacy_class(self, g):
        """Orbit of g under conjugation, as a sorted tuple of indices."""
        return tuple(sorted(self._conjugation_closure({self._as_index(g)})))

    def conjugacy_classes(self):
        remaining = set(range(len(self)))
        out = []
        while remaining:
            rep = min(remaining)
            cls = self.conjugacy_class(rep)
            out.append(cls)
            remaining.difference_update(cls)
        return out

    def _closure_incremental(self, idxs):
        """:func:`greedy_closure` of the given elements/indices in index order.

        Returns (set, kept generators), and raises InternalInconsistency
        when the closure's order does not divide |G| (Lagrange).
        """
        seed = sorted({self._as_index(i) for i in idxs})
        members, kept = greedy_closure(seed, self.imul, len(self))
        if len(self) % len(members):
            raise InternalInconsistency(
                f"subgroup order {len(members)} does not divide group order {len(self)}"
            )
        return members, kept

    def normal_closure(self, idxs):
        """Smallest normal subgroup containing the given elements/indices."""
        seed = self._conjugation_closure({self._as_index(i) for i in idxs})
        # the subgroup generated by a conjugation-closed set is normal
        return tuple(sorted(self._closure_incremental(seed)[0]))

    def _derived(self, gens):
        """[H, H] for the normal subgroup H generated by ``gens``: (set, kept generators).

        [H, H] is characteristic in H, so normal in G, and it is the normal
        closure in G of the commutators of any generating set of H (Holt,
        Eick and O'Brien, Handbook of Computational Group Theory, 3.3).
        """
        imul, inverse = self.imul, self.inverse
        commutators = {imul(imul(a, b), imul(inverse[a], inverse[b])) for a in gens for b in gens}
        members, kept = self._closure_incremental(self._conjugation_closure(commutators))
        if self._conjugation_closure(set(members)) != members:
            raise InternalInconsistency("derived subgroup is not normal")
        return members, kept

    def derived_series(self):
        """Subgroup chain G >= G' >= G'' >= ... until it stabilizes.

        Each term is a normal closure in G of the commutators of the
        generators the previous term's closure kept.  A perfect G gives
        [G, G], the trivial group included; a series that stabilizes at a
        proper perfect subgroup lists that subgroup once.
        """
        series = [tuple(range(len(self)))]
        gens = self.gens_idx
        while True:
            members, gens = self._derived(gens)
            if len(series) > 1 and len(members) == len(series[-1]):
                break
            series.append(tuple(sorted(members)))
            if len(members) in (1, len(self)):
                break
        return series

    def abelianization(self):
        """G/[G,G] as the cokernel of the Schreier relators of the Cayley graph.

        With w(x) the tree word of x, every edge (x, s) gives the relator
        w(x) s w(xs)^-1.  These generate the relation module of the
        generators, so their exponent-sum rows present G/[G,G] exactly.
        Each element's tree exponent counts are packed into one int, as
        digits in base 2|G| + 1; a count lies in [0, |G|), so every digit of
        a relator row lies in [-|G|, |G|] and the row is one int
        subtraction.  A tree edge packs to 0, and only distinct nonzero
        rows are decoded.
        """
        n = len(self)
        base = 2 * n + 1
        units = [base**s for s in range(len(self.right))]
        parent, gen = self.parent, self.gen
        packed = [0] * n
        for x in range(1, n):
            packed[x] = packed[parent[x]] + units[gen[x]]
        keys = set()
        for unit, col in zip(units, self.right):
            keys |= {packed[x] + unit - packed[y] for x, y in enumerate(col)}
        keys.discard(0)
        rows = []
        for key in keys:
            row = {}
            s = 0
            while key:
                key, digit = divmod(key + n, base)
                if digit != n:
                    row[s] = digit - n
                s += 1
            rows.append(row)
        return cokernel(rows, len(units))


def greedy_closure(candidates, product, size):
    """Close 0 under the candidates that enlarge the closure, in order.

    ``product(x, k)`` is x times candidate k on the indices
    ``range(size)`` of a group.  A subgroup of more than size/2 elements
    is the whole group (Lagrange), which lets the final growth round stop
    early.  Returns the member set and the kept candidates.
    """
    members = {0}
    kept = []
    for k in candidates:
        if k in members:
            continue
        kept.append(k)
        queue = list(members)
        while queue:
            x = queue.pop()
            for g in kept:
                y = product(x, g)
                if y not in members:
                    members.add(y)
                    queue.append(y)
            if 2 * len(members) > size:
                return set(range(size)), kept
    return members, kept


# -- rotation groups --------------------------------------------------------------


class FiniteRotationGroup(FiniteGroup):
    """Finite subgroup of Spin(4) or SO(4) with generator provenance.

    The group also keeps the factor groups ``factors = (L, R)`` it lies in
    and, per element, the pair ``(a, b)`` of factor indices of a Spin(4)
    lift: element x is ``Spin4Element(L[a], R[b])``, or in SO(4) the class
    of that pair.  Index 0 of each factor is its identity.  Facts that
    depend on one factor only are read once per factor element.
    """

    def __init__(self, elements, right, parent, gen, factors, pairs):
        super().__init__(elements, right, parent, gen)
        self.factors = factors
        self.pairs = pairs

    @property
    def ambient(self):
        return "so4" if isinstance(self.elements[0], qt.RotationClass) else "spin4"

    def column_subgroup(self, ngens):
        """The subgroup generated by the first ``ngens`` generators, on these elements.

        Its closure reads this group's table, so it makes no product and
        shares this group's element objects and factor pairs.  Breadth-first
        discovery depends only on the generator-labelled Cayley graph, so
        the elements, table and tree are those a closure of the same
        generators from scratch would build.
        """
        sub = FiniteGroup.map_closure(self.right[:ngens], len(self))
        elements = [self.elements[x] for x in sub.elements]
        pairs = [self.pairs[x] for x in sub.elements]
        return type(self)(elements, sub.right, sub.parent, sub.gen, self.factors, pairs)

    def generators(self):
        return [self.elements[i] for i in self.gens_idx]

    def _at_conductor(self, g):
        """g re-expressed at the group's conductor, where element hashes live.

        A query from a field that does not embed in the group's is refused
        rather than reported absent.
        """
        own, theirs = self.elements[self.identity_idx].conductor(), g.conductor()
        if own % theirs:
            raise ConductorMismatch(
                f"an element of conductor {theirs} is looked up in a group of conductor {own}"
            )
        return g.lift(own)

    def __contains__(self, element):
        return self._at_conductor(element) in self.index

    def _as_index(self, g):
        return super()._as_index(g if isinstance(g, int) else self._at_conductor(g))

    def to_so4(self):
        """Image in SO(4): each element is paired with its product by -1.

        Classes keep the order of their first member, and the table and
        tree are the Spin-level ones read through the pairing.  As -1 is
        central, the partner x (-1) = (-1) x of every x is the left column
        of -1.  :class:`~spherecover.quaternions.RotationClass`
        picks a representative by the sign of its left factor alone, read
        here once per left factor index, and from the pair {x, -x} of group
        elements, so no scalar is negated.  Without -1 in the group, a
        negative x is negated and keeps its own factor pair.
        """
        if self.ambient == "so4":
            return self
        n = len(self)
        m = qt.quat(-1, check=False).lift(self.elements[self.identity_idx].conductor())
        minus = self.index.get(qt.Spin4Element(m, m))  # -1, made with no negation
        partner = None if minus is None else self._left_column(minus)
        image = [-1] * n
        firsts = []
        for x in range(n):
            if image[x] < 0:
                image[x] = len(firsts)
                if partner is not None:
                    image[partner[x]] = len(firsts)
                firsts.append(x)
        lq = self.factors[0]
        signs = {}
        elements, pairs = [], []
        for x in firsts:
            a = self.pairs[x][0]
            sign = signs.get(a)
            if sign is None:
                sign = signs[a] = qt.leading_sign(lq[a])
                if not sign:
                    raise InternalInconsistency(f"left factor {lq[a]!r} is null")
            if sign > 0:
                src, rep = x, self.elements[x]
            elif partner is not None:
                src = partner[x]
                rep = self.elements[src]
            else:
                src, rep = x, -self.elements[x]
            elements.append(qt.RotationClass.of_rep(rep))
            pairs.append(self.pairs[src])
        right = [[image[col[x]] for x in firsts] for col in self.right]
        parent = [-1] + [image[self.parent[x]] for x in firsts[1:]]
        gen = [-1] + [self.gen[x] for x in firsts[1:]]
        return FiniteRotationGroup(elements, right, parent, gen, self.factors, pairs)

    @cached_property
    def fixed_point_mask(self):
        """Per element, whether it fixes a point of S^3: exactly when Re l == Re r.

        This is the real-part criterion of
        :func:`spherecover.quaternions.has_fixed_points`, read from the
        factor pairs: one dict gives every real part in L and R an id, so
        equal real parts share one, and each element compares two ids.  An
        SO(4) class is tested on its lift; a common sign changes nothing.
        """
        lq, rq = self.factors
        ids = {}
        left = [ids.setdefault(q.real_part(), len(ids)) for q in lq]
        right = [ids.setdefault(q.real_part(), len(ids)) for q in rq]
        return [left[a] == right[b] for a, b in self.pairs]

    def acts_freely(self):
        """(True, None) iff no non-identity rotation fixes a point of S^3.

        Uses the exact real-part criterion (:attr:`fixed_point_mask`), the
        same test that decides :func:`spherecover.quaternions.fixed_set`'s
        kind; the test suite cross-checks both against a generic kernel of
        ``x -> l*x - x*r``.
        """
        if self.ambient != "so4":
            raise WrongAmbient("free-action test expects an SO(4) group")
        for i, fixed in enumerate(self.fixed_point_mask):
            if fixed and i != self.identity_idx:
                return False, self.elements[i]
        return True, None

    def subgroup_intersections(self):
        """Orders of the intersections with S^3 x {1} and {1} x S^1, plus gcd.

        Counted on the factor pairs, whose index 0 is the identity; each
        right factor in use is tested once for lying in the circle.
        """
        if self.ambient != "spin4":
            raise WrongAmbient("intersection counts expect a Spin(4) group")
        rq = self.factors[1]
        if not all(rq[b].is_circle_factor() for b in {b for _, b in self.pairs}):
            raise WrongAmbient("group is not inside S^3 x S^1")
        left_count = sum(b == 0 for _, b in self.pairs)
        right_count = sum(a == 0 for a, _ in self.pairs)
        return left_count, right_count, math.gcd(left_count, right_count)


def _factor_closure(one, quats, cap):
    """One exact closure of a factor's distinct non-identity quaternions.

    Returns the element list and one right column per quaternion: the
    identity column for ``one``, and a shared column for a repeated
    quaternion.
    """
    if cap < 1:
        raise InvalidArgument("cap must be >= 1")
    slot = {one: None}
    distinct = []
    for q in quats:
        if q not in slot:
            slot[q] = len(distinct)
            distinct.append(q)
    elements, columns = _coset_closure(one, distinct, cap)
    identity = range(len(elements))
    return elements, [identity if slot[q] is None else columns[slot[q]] for q in quats]


def _coset_closure(one, gens, cap):
    """Dimino's closure of distinct non-identity quaternions, one coset at a time.

    The group is listed as right cosets <a> r_t of the cyclic group of
    a = gens[0]: element t * m + i is a^i r_t, with m the order of a.
    Exact products make the powers of a, each further element of a new
    coset as a (a^(i-1) r), and r_t q for every representative and
    generator.  Looking r_t q = a^j r_u up in the index gives the whole
    segment a^i r_t q = a^((i + j) mod m) r_u of q's column on integers.
    Returns the elements and one right column per generator.
    """
    if not gens:
        return [one], []
    a = gens[0]
    elements = [one]
    power = a
    while power != one:
        if len(elements) >= cap:
            raise CapExceeded(cap)
        elements.append(power)
        power = power * a
    m = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    reps = [one]
    columns = [[] for _ in gens]
    for r in reps:
        for q, col in zip(gens, columns):
            p = q if r is one else r * q
            k = index.get(p)
            if k is None:
                if len(elements) + m > cap:
                    raise CapExceeded(cap)
                k = len(elements)
                reps.append(p)
                coset = [p]
                for _ in range(m - 1):
                    coset.append(a * coset[-1])
                index.update(zip(coset, range(k, k + m)))
                elements.extend(coset)
            base = k - k % m
            col.extend(range(k, base + m))
            col.extend(range(base, k))
    return elements, columns


def generate_group(gens, cap=DEFAULT_GROUP_CAP):
    """Closure of Spin(4) elements into a rotation group, run on factor indices.

    The group lies in L x R, with L and R the groups generated by the
    left and the right quaternions, neither larger than it (Goursat).
    L and R are closed exactly, each once on its distinct non-identity
    generators and coset by coset of a cyclic subgroup, so the rest of
    their tables is integer arithmetic; the group is then the
    breadth-first closure of pair codes a |R| + b under
    (a, b) s = (a l_s, b r_s), read off those tables, in the order
    element-level closure would find it.
    """
    gens = list(gens)
    if not gens:
        raise InvalidArgument("need at least one generator")
    if not all(isinstance(g, qt.Spin4Element) for g in gens):
        raise WrongAmbient("generators must be Spin(4) elements; SO(4) groups come from to_so4")
    # One conductor per group: element hashes are conductor-scoped, so the
    # closure must never mix representations of the same value.
    conductor = math.lcm(*(g.conductor() for g in gens))
    gens = [g.lift(conductor) for g in gens]
    one = qt.one_at(conductor)
    lq, lcols = _factor_closure(one, [g.left for g in gens], cap)
    rq, rcols = _factor_closure(one, [g.right for g in gens], cap)
    width = len(rq)
    lcols = [[a * width for a in col] for col in lcols]
    codes = FiniteGroup.closure(
        0, len(gens), lambda c, s: lcols[s][c // width] + rcols[s][c % width], cap
    )
    pairs = [divmod(c, width) for c in codes.elements]
    elements = [qt.Spin4Element(lq[a], rq[b]) for a, b in pairs]
    return FiniteRotationGroup(elements, codes.right, codes.parent, codes.gen, (lq, rq), pairs)
