"""Seeded benchmark inputs: structured pairings of the blown cycle.

Every generator draws its randomness from a `SplitMix64` stream, so one
workload seed reproduces every pairing on any platform.  The four kinds pile
phase-two tasks into few classes, unlike uniform random pairings:

* ``antipodal``: class i is paired with class i+m, members matched by a
  seeded permutation, so every pair walks the full m steps.
* ``shift-one``: class 2t is paired with class 2t+1 by a seeded permutation.
* ``same-class``: the maximal partial pairing inside each class (the class
  size q is odd, so one member per class stays unpaired).
* ``hall``: a Hall-deficient pairing (see `hall_deficient`).
"""
from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from pairpath import blowup, routing
from pairpath.rng import SplitMix64

KINDS = ("antipodal", "shift-one", "same-class", "hall")


class HallCheckError(Exception):
    """A generated Hall-deficient pairing lacks the property it promises."""


def _permutation(k: int, rng: SplitMix64) -> list[int]:
    xs = list(range(k))
    rng.shuffle(xs)
    return xs


def antipodal(b: blowup.BlownCycle, rng: SplitMix64) -> routing.Pairing:
    pairs = []
    for i in range(b.m):
        perm = _permutation(b.q, rng)
        pairs.extend((b.vertex(i, a), b.vertex(i + b.m, perm[a]))
                     for a in range(b.q))
    return routing.make_pairing(pairs)


def shift_one(b: blowup.BlownCycle, rng: SplitMix64) -> routing.Pairing:
    pairs = []
    for t in range(b.m):
        perm = _permutation(b.q, rng)
        pairs.extend((b.vertex(2 * t, a), b.vertex(2 * t + 1, perm[a]))
                     for a in range(b.q))
    return routing.make_pairing(pairs)


def same_class(b: blowup.BlownCycle, rng: SplitMix64) -> routing.Pairing:
    pairs = []
    for i in range(b.num_classes):
        members = [b.vertex(i, a) for a in _permutation(b.q, rng)]
        pairs.extend(zip(members[0:-1:2], members[1::2]))
    return routing.make_pairing(pairs)


def hall_deficient(b: blowup.BlownCycle, rng: SplitMix64
                   ) -> tuple[routing.Pairing, int, int] | None:
    """A perfect pairing whose phase-two tasks in one class violate Hall's
    condition.  Returns (pairing, target class c, blocked vertex Z), or None
    when no such pairing exists for this m (m = 2 and 3).

    Every member y of class c becomes a target.  Its source is the start of
    a phase-one walk of length d in 1..m that lands at index r of class c;
    the walk starts at vertex(c - d, r - d(d+1)/2), so each slot (r, d) names
    a distinct source.  Z, in class c+1, is a common free neighbour of the
    task (y, r) only when neither y nor r lies in Z - {1..m}; a maximum
    bipartite matching pairs every y with a slot where one of them does and
    r != y (with r = y the walk would finish in phase one).  The q tasks of
    class c then compete for the q - 1 vertices of class c+1 other than Z.
    The remaining vertices are paired from the seed.
    """
    m, q = b.m, b.q
    c = rng.randrange(b.num_classes)
    z = rng.randrange(q)
    blocked = {(z - s) % q for s in range(1, m + 1)}  # y or r here misses Z
    slot_order = _permutation(q * m, rng)  # seeded tie-breaking
    rows, cols = [], []
    for y in range(q):
        for col, slot in enumerate(slot_order):
            r = slot // m
            if r != y and (y in blocked or r in blocked):
                rows.append(y)
                cols.append(col)
    allowed = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                         shape=(q, q * m))
    match = maximum_bipartite_matching(allowed, perm_type="column")
    if (match < 0).any():
        return None
    pairs = []
    for y in range(q):
        r, d = divmod(slot_order[int(match[y])], m)
        d += 1
        src = b.vertex(c - d, r - d * (d + 1) // 2)
        pairs.append((src, b.vertex(c, y)))
    used = {v for pair in pairs for v in pair}
    rest = [v for v in range(b.n) if v not in used]
    rng.shuffle(rest)
    pairs.extend(zip(rest[0::2], rest[1::2]))
    return routing.make_pairing(pairs), c, b.vertex(c + 1, z)


def check_hall(b: blowup.BlownCycle, pairing: routing.Pairing,
               c: int, blocked: int) -> None:
    """Confirm the Hall deficiency without consulting the router's outcome:
    phase one leaves exactly q tasks in class c, and no task's candidate
    list contains the blocked vertex."""
    entries = routing.phase_one(
        b, routing.canonical_labeling(b, pairing)).entries
    tasks = [e.task for e in entries
             if e.task is not None and b.class_of(e.y) == c % b.num_classes]
    if len(tasks) != b.q:
        raise HallCheckError(
            f"class {c} has {len(tasks)} phase-two tasks, expected {b.q}")
    for target, reached in tasks:
        if blocked in blowup.free_common_neighbors(b, reached, target):
            raise HallCheckError(
                f"task ({target}, {reached}) can still use vertex {blocked}")


def structured(b: blowup.BlownCycle, kind: str, rng: SplitMix64
               ) -> tuple[routing.Pairing, tuple[int, int] | None] | None:
    """One seeded pairing of the given kind, as (pairing, hall): hall is
    (c, Z) for a Hall-deficient pairing, for `check_hall`, and None for the
    other kinds.  None when the kind has no instance at this m."""
    if kind == "hall":
        found = hall_deficient(b, rng)
        return None if found is None else (found[0], found[1:])
    make = {"antipodal": antipodal, "shift-one": shift_one,
            "same-class": same_class}[kind]
    return make(b, rng), None
