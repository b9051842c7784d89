"""Seeded workload inputs and the answers known for them in closed form.

Nothing here imports the library: every expected value comes from
knot-theoretic or group-theoretic facts, never from running the code
under test.  Each generator yields *blocks*, lists of ``(item, expected)``
pairs with a fixed composition, so a run that stops at any block boundary
has the same mix of input classes whatever the seed.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("knots-finite", "knots-capped", "spaceforms")

CAPPED_COSET_CAP = 5_000  # stated cap for knots-capped; the library default is 200k
INFINITE_LABELS = ("infinite_or_unknown", "infinite")  # "infinite": a future certified verdict


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


# -- knots ------------------------------------------------------------------


def _finite(det, h1, cover_order, label):
    return {"det": det, "h1": h1, "cover_order": cover_order, "classification": label}


def _cyclic(n):
    # Double cover of b(p,q) is the lens space L(p,q); of T(2,n), L(n,1).
    return _finite(n, f"Z/{n}", n, f"cyclic({n})")


def torus_braid(rng, p, q):
    """(s1 ... s_{p-1})^q, cyclically rotated and mirrored at random.

    Rotation is a braid conjugation and mirroring changes neither the
    determinant nor the cover group, so the closed-form answers stand.
    """
    word = list(range(1, p)) * q
    r = rng.randrange(len(word))
    word = word[r:] + word[:r]
    if rng.random() < 0.5:
        word = [-x for x in word]
    return word


def markov_braid(rng, p, q):
    """A torus braid moved by one conjugation and one stabilisation (Markov moves)."""
    word = torus_braid(rng, p, q)
    x = rng.choice([s * i for i in range(1, p) for s in (1, -1)])
    word = [x] + word + [-x]
    word.append(rng.choice((p, -p)))
    return p + 1, word


def braid_payload(strands, word):
    return f"strands={strands} " + " ".join(str(x) for x in word)


def knots_finite_blocks(seed):
    """16 rows: 4 two-bridge, 2 T(2,n), 6 Markov T(3,4), 4 Markov T(3,5).

    Each percentile falls inside one input class rather than at the edge
    between two.  The two-bridge and T(2,n) rows cost 0.5-18 ms depending on
    the seeded parameter, and the T(3,4) rows a steady 6 ms in the middle of
    that range; with six of them the median is a T(3,4) row whatever the
    seed.  The Markov T(3,5) rows are the slowest; with a quarter of the
    rows, the 90th percentile falls inside their upper half.
    """
    rng = rng_for("knots-finite", seed)
    n = 0
    while True:
        block = []
        for _ in range(4):
            p = rng.randrange(3, 32, 2)
            q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
            block.append(((f"b{p}_{q}", "twobridge", f"{p} {q}"), _cyclic(p)))
        for _ in range(2):
            m = rng.randrange(3, 32, 2)
            block.append(((f"t2_{m}", "torus", f"2 {m}"), _cyclic(m)))
        # Sigma(2,3,4) and Sigma(2,3,5): binary tetrahedral and binary icosahedral.
        for q, count, answer in ((4, 6, _finite(3, "Z/3", 24, "tetrahedral")),
                                 (5, 4, _finite(1, "0", 120, "icosahedral"))):
            for _ in range(count):
                strands, word = markov_braid(rng, 3, q)
                block.append(((f"t3_{q}", "braid", braid_payload(strands, word)), answer))
        rng.shuffle(block)
        yield [((f"{n + i}_{row[0]}", row[1], row[2]), exp) for i, (row, exp) in enumerate(block)]
        n += len(block)


def torus_determinant(p, q):
    """|Delta(-1)| of T(p,q): 1 when both are odd, else the odd parameter."""
    if p % 2 and q % 2:
        return 1
    return q if p % 2 == 0 else p


def knots_capped_blocks(seed):
    """6 rows with infinite covers: T(3,7), T(3,8), T(4,5) and three odd pretzels.

    Sigma(2,3,n) for n >= 7, Sigma(2,4,5) and the pretzel covers (Seifert
    with base S^2(a,b,c), 1/a + 1/b + 1/c <= 1) all have infinite pi_1.
    Torus braids are rotated and mirrored, pretzel tangles permuted.
    """
    rng = rng_for("knots-capped", seed)
    n = 0
    while True:
        block = []
        for p, q in ((3, 7), (3, 8), (4, 5)):
            block.append(((f"t{p}_{q}", "braid", braid_payload(p, torus_braid(rng, p, q))),
                          {"det": torus_determinant(p, q)}))
        for triple in ((3, 3, 5), (3, 5, 5), (3, 5, 7)):
            a, b, c = rng.sample(triple, 3)
            block.append(((f"pretzel_{a}_{b}_{c}", "montesinos", f"e=0; 1/{a} 1/{b} 1/{c}"),
                          {"det": a * b + b * c + c * a}))
        rng.shuffle(block)
        yield [((f"{n + i}_{row[0]}", row[1], row[2]), exp) for i, (row, exp) in enumerate(block)]
        n += len(block)


# -- space forms ----------------------------------------------------------------


def spaceform_orders(family, m, p=1, k=0):
    """(|Spin(4)-level group|, |SO(4)-level group|) of a family member.

    Cyclic: the lens group of order m, doubled at the Spin level by -1 when
    the weight p is even.  Tetrahedral: binary tetrahedral (24) times the
    2*m*3^(k-1) circle part.  Icosahedral: binary icosahedral (120) times
    the 2m circle part.  SO(4) quotients by -1 except in the cyclic case.
    """
    if family == "cyclic":
        return (2 * m if p % 2 == 0 else m), m
    if family == "tetrahedral":
        spin = 48 * m * 3 ** max(k - 1, 0)
    else:
        spin = 240 * m
    return spin, spin // 2


def spaceforms_blocks(seed):
    """One mini-sweep: three seeded cyclic specs plus a fixed set of larger ones.

    The largest members of default_sweep() (tetrahedral k=2 with m=5, 7 and
    icosahedral m=7, 11) take 4-12 s each and are left out so a run holds
    several complete sweeps.  Of the 11 specs, tetrahedral(m=1, k=2) appears
    twice and tetrahedral(m=7) three times, so the median spec time falls in
    the middle of the first cluster and the 90th percentile inside the
    second, rather than at the edge between two kinds of spec.
    """
    rng = rng_for("spaceforms", seed)
    fixed = [("tetrahedral", 1, 1, 0), ("tetrahedral", 1, 1, 2), ("tetrahedral", 1, 1, 2),
             ("icosahedral", 1, 1, 0), ("tetrahedral", 5, 1, 0)] + [("tetrahedral", 7, 1, 0)] * 3
    while True:
        block = [("cyclic", rng.choice((1, 3, 5, 7, 9, 15)), rng.choice((1, 2, 4)), 0)
                 for _ in range(3)] + fixed
        rng.shuffle(block)
        yield [(spec, {"orders": spaceform_orders(*spec)}) for spec in block]


BLOCKS = {
    "knots-finite": knots_finite_blocks,
    "knots-capped": knots_capped_blocks,
    "spaceforms": spaceforms_blocks,
}


def blocks(workload, seed):
    return BLOCKS[workload](seed)
