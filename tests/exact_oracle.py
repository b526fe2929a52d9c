"""Exact oracles: the orbit by repeated addition, and the exact P- and
f-scans the fingerprint scans are tested against.

`add_loop_orbit` builds each (m+1)*G as one chord-tangent addition, so it
shares no code with the division-polynomial orbit of `points.orbit`.  The
scans walk that orbit, evaluate every value exactly and index it in
`collision_scan`'s exact dict, so they share no code with the residue path
(primes, reduction mod p, fingerprints, partitions).  The product confirms
its candidates in that same dict, so the ten lines of `collision_scan` are
all the oracle shares with it, and `test_collisions.py` pins them against
hand-built classes.  The scans are slow: only small orbits belong here.
"""

from ecinj.collisions import P_NOT_INJECTIVE, collision_scan
from ecinj.curve import INFINITY, add, negate


def add_loop_orbit(spec):
    """`points.orbit(spec)`, item for item, with m*G = (m-1)*G + G."""
    spec.validate()
    g = spec.generator
    translates = spec.torsion if spec.torsion else (INFINITY,)
    mg = g
    for m in range(1, spec.bound + 1):
        if m > 1:
            mg = add(mg, g)
        neg_mg = negate(mg)
        for sign, base in ((m, mg), (-m, neg_mg)):
            for k, t in enumerate(translates):
                pt = base if t.is_infinity else add(base, t)
                if pt.is_infinity:
                    continue
                label = sign if not spec.torsion else (sign, k)
                yield (label, pt)


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
    labeled = list(add_loop_orbit(spec))
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
    pvalues = [(label, u.eval_P(pt)) for label, pt in add_loop_orbit(spec)]
    # equal points have equal P, so this also refuses duplicate points
    if len({v for _, v in pvalues}) < len(pvalues):
        raise ValueError(P_NOT_INJECTIVE)
    n, gamma = u.params.n, u.params.gamma
    powers = [(label, v**n) for label, v in pvalues]
    return collision_scan(
        ((l1, l2), a + gamma * b) for (l1, a), (l2, b) in pair_stream(powers)
    )
