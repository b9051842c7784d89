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

    def __init__(self, elements, right, parent, gen):
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise InvalidArgument("duplicate elements in group construction")
        self.right = right
        self.parent = parent
        self.gen = gen

    @cached_property
    def left(self):
        """Left generator columns: s * (p * t) = (s * p) * t follows the tree."""
        right, parent, gen = self.right, self.parent, self.gen
        n = len(self.elements)
        out = []
        for col in right:
            lcol = [col[0]] * n
            for x in range(1, n):
                lcol[x] = right[gen[x]][lcol[parent[x]]]
            out.append(lcol)
        return out

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
        becomes column ``s`` of the right Cayley table.
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
        return cls(labels, right, parent, gen)

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

    def column_subgroup(self, ngens):
        """The subgroup generated by the first ``ngens`` generators, on these elements.

        Its closure reads this group's table, so it makes no product and
        shares this group's element objects.  Breadth-first discovery
        depends only on the generator-labelled Cayley graph, so the
        elements, table and tree are those a closure of the same
        generators from scratch would build.
        """
        right = self.right[:ngens]
        sub = FiniteGroup.closure(
            self.identity_idx, ngens, lambda x, s: right[s][x], len(self)
        )
        elements = [self.elements[x] for x in sub.elements]
        return type(self)(elements, sub.right, sub.parent, sub.gen)

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

    def iinv(self, i):
        return self.inverse[i]

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

    def _check_lagrange(self, idxs):
        if len(self) % len(idxs):
            raise InternalInconsistency(
                f"subgroup order {len(idxs)} does not divide group order {len(self)}"
            )
        return idxs

    def _conjugation_closure(self, seed, by=None):
        """Close a set of indices, in place, under x -> g^-1 x g for g in ``by``.

        By default g runs over the generators, where conjugation is four
        table lookups: s^-1 x s = ((x^-1 s)^-1) s.
        """
        inverse = self.inverse
        if by is None:
            maps = [lambda x, c=col: c[inverse[c[inverse[x]]]] for col in self.right]
        else:
            maps = [lambda x, g=g: self.imul(self.imul(inverse[g], x), g) for g in by]
        queue = list(seed)
        while queue:
            x = queue.pop()
            for conj in maps:
                y = conj(x)
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

    def subgroup_closure(self, idxs):
        """Smallest subgroup containing the given indices."""
        return self._check_lagrange(tuple(sorted(self._closure_incremental(idxs)[0])))

    def _closure_incremental(self, idxs):
        """Closure that keeps only non-redundant generators; returns (set, gens).

        A subgroup of order more than |G|/2 is G itself (Lagrange), which
        lets the final growth round stop early.
        """
        seed = sorted({self._as_index(i) for i in idxs})
        members = {self.identity_idx}
        kept = []
        whole = len(self.elements)
        for s in seed:
            if s in members:
                continue
            kept.append(s)
            queue = list(members)
            while queue:
                x = queue.pop()
                for g in kept:
                    y = self.imul(x, g)
                    if y not in members:
                        members.add(y)
                        queue.append(y)
                if 2 * len(members) > whole:
                    return set(range(whole)), kept
        return members, kept

    def normal_closure(self, idxs):
        """Smallest normal subgroup containing the given elements/indices."""
        seed = self._conjugation_closure({self._as_index(i) for i in idxs})
        # the subgroup generated by a conjugation-closed set is normal
        return self.subgroup_closure(seed)

    def small_generating_set(self, idxs):
        """Greedy small generating subset of a subgroup's element list."""
        members, kept = self._closure_incremental(idxs)
        if members != {self._as_index(i) for i in idxs} | {self.identity_idx}:
            raise InternalInconsistency("input was not a subgroup")
        return kept or [self.identity_idx]

    def derived_subgroup(self, sub=None):
        """Commutator subgroup of G, or of the subgroup ``sub``."""
        gens = self.gens_idx if sub is None else self.small_generating_set(sub)
        by = None if sub is None else gens
        inverse = self.inverse
        commutators = {
            self.imul(self.imul(a, b), self.imul(inverse[a], inverse[b]))
            for a in gens
            for b in gens
        }
        # normal closure inside the subgroup generated by gens
        result = self.subgroup_closure(self._conjugation_closure(commutators, by))
        members = set(result)
        if self._conjugation_closure(set(members), by) != members:
            raise InternalInconsistency("derived subgroup is not normal")
        return result

    def derived_series(self):
        """Subgroup chain G >= G' >= G'' >= ... until it stabilizes."""
        series = [tuple(range(len(self)))]
        current = None
        while True:
            nxt = self.derived_subgroup(current)
            if current is not None and set(nxt) == set(current):
                break
            if current is None and len(nxt) == len(self):
                series.append(nxt)
                break
            series.append(nxt)
            current = nxt
            if len(current) == 1:
                break
        return series

    def abelianization(self):
        """G/[G,G] as the cokernel of the Schreier relators of the Cayley graph.

        With w(x) the tree word of x, every edge (x, s) gives the relator
        w(x) s w(xs)^-1.  These generate the relation module of the
        generators, so their exponent-sum rows present G/[G,G] exactly.
        """
        ngens = len(self.right)
        counts = [(0,) * ngens]
        for x in range(1, len(self)):
            row = list(counts[self.parent[x]])
            row[self.gen[x]] += 1
            counts.append(tuple(row))
        rows = set()
        for s, col in enumerate(self.right):
            for x, y in enumerate(col):
                row = [a - b for a, b in zip(counts[x], counts[y])]
                row[s] += 1
                if any(row):
                    rows.add(tuple(row))
        return cokernel(sorted(rows), ngens)


# -- rotation groups --------------------------------------------------------------


class FiniteRotationGroup(FiniteGroup):
    """Finite subgroup of Spin(4) or SO(4) with generator provenance."""

    @property
    def ambient(self):
        return "so4" if isinstance(self.elements[0], qt.RotationClass) else "spin4"

    @classmethod
    def generate_rotations(cls, gens, cap=DEFAULT_GROUP_CAP):
        """Closure of Spin(4) elements, run on indices into its two factor groups.

        The group lies in L x R, with L and R the groups generated by the
        left and the right quaternions, neither larger than it (Goursat).
        L and R are closed exactly, each once on its distinct non-identity
        generators and coset by coset of a cyclic subgroup, so the rest of
        their tables is integer arithmetic; the group is then the
        breadth-first closure of index pairs under (a, b) s = (a l_s, b r_s),
        read off those tables, in the order element-level closure would find
        it.
        """
        gens = list(gens)
        if not gens:
            raise InvalidArgument("need at least one generator")
        if not all(isinstance(g, qt.Spin4Element) for g in gens):
            raise WrongAmbient(
                "generators must be Spin(4) elements; SO(4) groups come from to_so4"
            )
        # One conductor per group: element hashes are conductor-scoped, so the
        # closure must never mix representations of the same value.
        conductor = math.lcm(*(g.conductor() for g in gens))
        gens = [g.lift(conductor) for g in gens]
        one = qt.one_at(conductor)
        lq, lcols = _factor_closure(one, [g.left for g in gens], cap)
        rq, rcols = _factor_closure(one, [g.right for g in gens], cap)
        pairs = FiniteGroup.closure(
            (0, 0), len(gens), lambda p, s: (lcols[s][p[0]], rcols[s][p[1]]), cap
        )
        elements = [qt.Spin4Element(lq[a], rq[b]) for a, b in pairs.elements]
        return cls(elements, pairs.right, pairs.parent, pairs.gen)

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
        tree are the Spin-level ones read through the pairing.  Each class's
        representative is picked from the pair {x, -x} of group elements,
        so no scalar is negated and every canonical key is already cached.
        """
        if self.ambient == "so4":
            return self
        m = qt.quat(-1, check=False).lift(self.elements[self.identity_idx].conductor())
        minus = self.index.get(qt.Spin4Element(m, m))  # -1, made with no negation
        image = [None] * len(self)
        reps = []
        for x in range(len(self)):
            if image[x] is None:
                image[x] = len(reps)
                partner = None
                if minus is not None:
                    y = self.imul(x, minus)
                    image[y] = len(reps)
                    partner = self.elements[y]
                reps.append((x, partner))
        right = [[image[col[x]] for x, _ in reps] for col in self.right]
        parent = [-1] + [image[self.parent[x]] for x, _ in reps[1:]]
        gen = [-1] + [self.gen[x] for x, _ in reps[1:]]
        elements = [qt.RotationClass(self.elements[x], partner) for x, partner in reps]
        return FiniteRotationGroup(elements, right, parent, gen)

    def acts_freely(self):
        """(True, None) iff no non-identity rotation fixes a point of S^3.

        Uses the exact real-part criterion, the same test that decides
        :func:`spherecover.quaternions.fixed_set`'s kind; the test suite
        cross-checks both against a generic kernel of ``x -> l*x - x*r``.
        """
        if self.ambient != "so4":
            raise WrongAmbient("free-action test expects an SO(4) group")
        for i, e in enumerate(self.elements):
            if i == self.identity_idx:
                continue
            if qt.has_fixed_points(e):
                return False, e
        return True, None

    def subgroup_intersections(self):
        """Orders of the intersections with S^3 x {1} and {1} x S^1, plus gcd."""
        if self.ambient != "spin4":
            raise WrongAmbient("intersection counts expect a Spin(4) group")
        one = qt.one_at(self.elements[self.identity_idx].conductor())
        left_count = 0
        right_count = 0
        for e in self.elements:
            if not e.right.is_circle_factor():
                raise WrongAmbient("group is not inside S^3 x S^1")
            if e.right == one:
                left_count += 1
            if e.left == one:
                right_count += 1
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
    """Closure of Spin(4) elements into a rotation group."""
    return FiniteRotationGroup.generate_rotations(gens, cap=cap)
