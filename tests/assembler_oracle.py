"""Slot labelling in two passes: the assembler oracle.

This is ``knots._Assembler.finish`` before it labelled every slot in its
one traversal: the walk recorded only the label of the edge entering each
slot, and a second loop over the crossings searched each one for its two
entered slots and the under-strand's entry, read the leaving labels off
the opposite entered slots, and checked that every crossing was entered
twice.  The tests install it in place of the library's ``finish`` and
require the same PD text, or the same error.
"""

from spherecover.errors import InternalInconsistency, NotAKnot, ValidationError
from spherecover.knots import diagram_from_pd_tuples


def _succ(e, n2):
    return e % n2 + 1


def finish(self):
    if not self.crossings:
        return diagram_from_pd_tuples([])
    incidences = {}
    for ci, (ends, _) in enumerate(self.crossings):
        for slot, key in enumerate(ends):
            incidences.setdefault(self.find(key), []).append((ci, slot))
    for key, incs in incidences.items():
        if len(incs) != 2:
            raise ValidationError(f"edge key {key} has {len(incs)} endpoints")
    n = len(self.crossings)
    start_key = self.find(self.crossings[0][0][0])
    enter = incidences[start_key][0]
    labels = {}  # (ci, slot) -> edge label of the edge ENTERING at that slot
    label = 0
    edge_key = start_key
    while True:
        label += 1
        ci, slot = enter
        labels[(ci, slot)] = label
        out_slot = (slot + 2) % 4
        edge_key = self.find(self.crossings[ci][0][out_slot])
        inc1, inc2 = incidences[edge_key]
        enter = inc2 if inc1 == (ci, out_slot) else inc1
        if edge_key == start_key:
            break
    if label != 2 * n:
        raise NotAKnot(f"{label} of {2 * n} edges on the first component")
    tuples = []
    n2 = 2 * n
    for ci, (ends, under_slot) in enumerate(self.crossings):
        in_slots = [s for s in range(4) if (ci, s) in labels]
        if len(in_slots) != 2:
            raise InternalInconsistency("each crossing is entered exactly twice")
        a_slot = under_slot if under_slot in in_slots else under_slot + 2
        if a_slot not in in_slots:
            raise InternalInconsistency("under strand never enters its crossing")
        quad = []
        for off in range(4):
            s = (a_slot + off) % 4
            if s in in_slots:
                quad.append(labels[(ci, s)])
            else:
                quad.append(_succ(labels[(ci, (s + 2) % 4)], n2))
        tuples.append(tuple(quad))
    return diagram_from_pd_tuples(tuples)
