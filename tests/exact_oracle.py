"""Exact P- and f-scans: the oracle the fingerprint scans are tested against.

They walk the orbit with the exact group law, evaluate every value exactly
and index it in `collision_scan`'s exact dict, so they share no code with
the residue path (primes, reduction mod p, fingerprints, partitions).  They
are slow: only small orbits belong here.
"""

from ecinj.collisions import P_NOT_INJECTIVE, collision_scan
from ecinj.points import orbit


def pair_stream(stream):
    """All ordered pairs from a stream, row-major in stream order; the
    stream is materialized once, the pairs are generated lazily."""
    items = list(stream)
    for left in items:
        for right in items:
            yield (left, right)


def exact_p_scan(u, spec):
    """The P-scan's findings: value classes, and duplicate points (labels
    carrying one point; only the first stays in the value scan)."""
    labeled = list(orbit(spec))
    by_point = {}
    for label, pt in labeled:
        by_point.setdefault((pt.x, pt.y), []).append(label)
    duplicates = sorted((g for g in by_point.values() if len(g) >= 2), key=lambda g: str(g[0]))
    dropped = {label for g in duplicates for label in g[1:]}
    report = collision_scan(
        (label, u.eval_P(pt)) for label, pt in labeled if label not in dropped
    )
    report.duplicate_points = duplicates
    return report


def exact_f_scan(u, spec):
    """The f-scan's findings over all ordered pairs, keys (m1, m2); refuses
    an orbit on which P takes a value twice, as the f-scan does."""
    pvalues = [(label, u.eval_P(pt)) for label, pt in orbit(spec)]
    # equal points have equal P, so this also refuses duplicate points
    if len({v for _, v in pvalues}) < len(pvalues):
        raise ValueError(P_NOT_INJECTIVE)
    n, gamma = u.params.n, u.params.gamma
    powers = [(label, v**n) for label, v in pvalues]
    return collision_scan(
        ((l1, l2), a + gamma * b) for (l1, a), (l2, b) in pair_stream(powers)
    )
