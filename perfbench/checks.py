"""Output checkers: each returns a list of problems, empty when the output is right.

The comparisons are explicit ``if`` tests, not ``assert``, so they still
run under ``python -O``.  Expected values come from :mod:`inputs`.
"""

from __future__ import annotations

from inputs import INFINITE_LABELS

SPACEFORM_CHECKS = 7


def check_finite_knot(record, expected):
    """A corpus report record against (det, h1, cover order, classification)."""
    if record.get("error"):
        return [f"row error: {record['error']}"]
    problems = []
    for key, want in expected.items():
        got = record.get(key)
        if got != want:
            problems.append(f"{key}: got {got!r}, expected {want!r}")
    return problems


def check_capped_knot(record, expected):
    """Infinite covers: never a finite label, and the determinant still exact."""
    if record.get("error"):
        return [f"row error: {record['error']}"]
    problems = []
    if record.get("classification") not in INFINITE_LABELS:
        problems.append(
            f"classification {record.get('classification')!r} on an infinite cover"
        )
    if record.get("det") != expected["det"]:
        problems.append(f"det: got {record.get('det')!r}, expected {expected['det']!r}")
    return problems


def check_spaceform(result, expected):
    """All seven checks pass, group orders match, abelianization has odd order."""
    problems = []
    checks = result["checks"]
    if len(checks) != SPACEFORM_CHECKS:
        problems.append(f"{len(checks)} checks reported, expected {SPACEFORM_CHECKS}")
    failed = sorted(name for name, ok in checks.items() if ok is not True)
    if failed:
        problems.append(f"failed checks {failed}")
    got = (result["spin_order"], result["so4_order"])
    if got != expected["orders"]:
        problems.append(f"(|Spin|, |SO4|) = {got}, expected {expected['orders']}")
    ab = result["abelianization_order"]
    if ab is None or ab % 2 == 0:
        problems.append(f"abelianization order {ab} is not odd")
    return problems

