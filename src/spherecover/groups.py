"""Finite group engine on the right Cayley table.

A group is stored as what breadth-first closure of a generating set
computes anyway: its elements in discovery order (identity first), the
right Cayley table ``right[s][x] = x * s`` for every generator ``s``, and
the spanning tree of the search, ``x = parent[x] * gen[x]``.  Left
multiplication by the generators and all inverses follow along the tree
in one pass, so products, conjugation, conjugacy classes, normal
closures, derived series and abelianizations run on integers only.
Exact elements are multiplied only while the table is built; afterwards
they serve geometry and membership lookups.  The same engine drives
quaternionic rotation groups and the groups read off coset tables.
"""

from __future__ import annotations

import math

from . import quaternions as qt
from .errors import (
    CapExceeded,
    ConductorMismatch,
    InternalInconsistency,
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
            raise ValueError("duplicate elements in group construction")
        self.right = right
        self.parent = parent
        self.gen = gen
        n = len(self.elements)
        # s * (p * t) = (s * p) * t: left columns follow the tree
        self.left = []
        for col in right:
            lcol = [col[0]] * n
            for x in range(1, n):
                lcol[x] = right[gen[x]][lcol[parent[x]]]
            self.left.append(lcol)
        # (p * t)^-1 = t^-1 * p^-1, with t^-1 * y read off the inverted left column
        linv = []
        for lcol in self.left:
            icol = [0] * n
            for x, y in enumerate(lcol):
                icol[y] = x
            linv.append(icol)
        self.inverse = [0] * n
        for x in range(1, n):
            self.inverse[x] = linv[gen[x]][self.inverse[parent[x]]]

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
    def generate(cls, gens, cap=DEFAULT_GROUP_CAP, identity=None):
        """Breadth-first closure of the generators under multiplication."""
        if cap < 1:
            raise ValueError("cap must be >= 1")
        gens = list(gens)
        if identity is None:
            if not gens:
                raise ValueError("need generators or an explicit identity")
            identity = gens[0] * gens[0].inverse()
        return cls.closure(identity, len(gens), lambda e, s: e * gens[s], cap)

    def subgroup(self, idxs):
        """The subgroup generated by ``idxs`` as a group in its own right.

        Only the generators that enlarge the closure are kept; the new
        group's elements are their indices in this one.
        """
        _, kept = self._closure_incremental(idxs)
        return FiniteGroup.closure(
            self.identity_idx, len(kept), lambda x, s: self.imul(x, kept[s]), len(self)
        )

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

    def is_perfect(self):
        return len(self.derived_subgroup()) == len(self)

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
        gens = list(gens)
        if not gens:
            raise ValueError("need at least one generator")
        # One conductor per group: element hashes are conductor-scoped, so the
        # closure must never mix representations of the same value.
        conductor = math.lcm(*(g.conductor() for g in gens))
        gens = [g.lift(conductor) for g in gens]
        identity = qt.spin_identity()
        if isinstance(gens[0], qt.RotationClass):
            identity = qt.RotationClass(identity)
        return cls.generate(gens, cap=cap, identity=identity.lift(conductor))

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
        tree are the Spin-level ones read through the pairing.
        """
        if self.ambient == "so4":
            return self
        minus = self.index.get(-self.elements[self.identity_idx])
        image = [None] * len(self)
        reps = []
        for x in range(len(self)):
            if image[x] is None:
                image[x] = len(reps)
                if minus is not None:
                    image[self.imul(x, minus)] = len(reps)
                reps.append(x)
        right = [[image[col[x]] for x in reps] for col in self.right]
        parent = [-1] + [image[self.parent[x]] for x in reps[1:]]
        gen = [-1] + [self.gen[x] for x in reps[1:]]
        elements = [qt.RotationClass(self.elements[x]) for x in reps]
        return FiniteRotationGroup(elements, right, parent, gen)

    def extension(self, t, cap=DEFAULT_GROUP_CAP):
        """<H, t> as the cosets H, Ht, ..., Ht^(r-1), r least with t^r in H.

        t must normalize H.  It is lifted once to the group's conductor;
        a t whose conductor does not divide it raises ConductorMismatch.
        Only the conjugates t^i s t^-i of the generators, the powers of t
        and the coset elements are exact products: the table follows from
        (h t^i) s = (h t^i s t^-i) t^i and (h t^(r-1)) t = h t^r.
        """
        t = self._at_conductor(t)
        n, t_inv = len(self), t.inverse()
        powers, conj = [self.elements[self.identity_idx]], [self.gens_idx]
        while (top := powers[-1] * t) not in self.index:
            if n * (len(powers) + 1) > cap:
                raise CapExceeded(cap)
            powers.append(top)
            conj.append([self.index.get(t * self.elements[c] * t_inv) for c in conj[-1]])
            if None in conj[-1]:
                raise NotMember(f"{t!r} does not normalize the group")
        h, shifted = range(n), range(n * (len(powers) - 1))
        right = [
            col + [i * n + self.imul(x, cs[s]) for i, cs in enumerate(conj[1:], 1) for x in h]
            for s, col in enumerate(self.right)
        ]
        right.append([x + n for x in shifted] + [self.imul(x, self.index[top]) for x in h])
        parent = self.parent + list(shifted)
        gen = self.gen + [len(self.right)] * len(shifted)
        elements = self.elements + [e * p for p in powers[1:] for e in self.elements]
        return FiniteRotationGroup(elements, right, parent, gen)

    def acts_freely(self):
        """(True, None) iff no non-identity rotation fixes a point of S^3.

        Uses the exact real-part criterion; the kernel-dimension route in
        :func:`spherecover.quaternions.fixed_set` is the independent
        cross-check exercised by the test suite.
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
        one = qt.quat_one()
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


def generate_group(gens, cap=DEFAULT_GROUP_CAP):
    """Closure of Spin(4) elements or rotation classes into a rotation group."""
    return FiniteRotationGroup.generate_rotations(gens, cap=cap)


# -- convenience: named quaternion groups ------------------------------------------


def quaternion_group_q8():
    """The eight Lipschitz units as a Spin(4) group acting on the left."""
    i = qt.Spin4Element(qt.quat_i(), qt.quat_one())
    j = qt.Spin4Element(qt.quat_j(), qt.quat_one())
    return generate_group([i, j], cap=32)
