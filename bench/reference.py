"""Reference answers for the benchmark, written without calling qtree.

Points are plain label tuples, base sets are Python sets of tuples and
monomial ideals are lists of exponent pairs.  Every check the benchmark makes
on the library's output compares against a function in this file, so a bug in
a qtree module cannot also hide in the value it is checked against.
"""

from __future__ import annotations

import math

ROOT = ()


def label_key(label):
    return {"X": (0, ""), "Y": (1, "")}.get(label, (2, label))


def point_key(path):
    """Canonical point order: by level, then X before Y before other labels."""
    return (len(path), tuple(label_key(l) for l in path))


def point_str(path):
    return ".".join(path) if path else "D"


def chain(path):
    return {path[:i] for i in range(len(path) + 1)}


def union_of_chains(paths):
    out = {ROOT}
    for p in paths:
        out |= chain(p)
    return out


def parent_chains(paths):
    """Base set of the least model carrying every given point as a closed point."""
    return union_of_chains(p[:-1] for p in paths)


def terminals(base):
    """Members of a base set with no child in the set."""
    parents = {p[:-1] for p in base if p}
    return base - parents


def comparable(a, b):
    n = min(len(a), len(b))
    return a[:n] == b[:n]


def is_antichain(paths):
    paths = list(paths)
    return not any(
        comparable(a, b) for i, a in enumerate(paths) for b in paths[i + 1 :]
    )


def is_closed_point(q, base):
    """A closed point of a model: its parent is a base point and it is not."""
    return bool(q) and q[:-1] in base and q not in base


def is_min_incomparable(q, targets):
    """Incomparable to every target, with a parent that is not."""
    if not q:
        return False
    return all(not comparable(q, t) for t in targets) and any(
        comparable(q[:-1], t) for t in targets
    )


def symbolic_member(q, singles, fans):
    """Membership in a decoded point set: ``singles`` is a set of paths and
    ``fans`` maps a base path to its excluded labels."""
    if q in singles:
        return True
    return bool(q) and q[:-1] in fans and q[-1] not in fans[q[:-1]]


def sample_points(base, labels, rng, extra=8):
    """Points around a base set: every child of a base point in every label
    (plus one label never used), the base points themselves and a few points
    two levels up."""
    out = set(base)
    for b in base:
        for l in labels:
            out.add(b + (l,))
    fresh = "zz"
    for b in rng.sample(sorted(base, key=point_key), min(extra, len(base))):
        out.add(b + (fresh,))
        out.add(b + (rng.choice(labels), rng.choice(labels)))
    return out


# ---------------------------------------------------------------- monomial


def minimize(pairs):
    """The componentwise-minimal pairs, sorted by x-exponent."""
    best = {}
    for a, b in pairs:
        if a not in best or b < best[a]:
            best[a] = b
    out = []
    for a in sorted(best):
        if not out or best[a] < out[-1][1]:
            out.append((a, best[a]))
    return out


def multiply(g1, g2):
    return minimize((a1 + a2, b1 + b2) for a1, b1 in g1 for a2, b2 in g2)


def lower_hull(gens):
    """Vertices of the lower-left convex boundary of a minimal staircase."""
    hull = []
    for p in minimize(gens):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def closure(gens):
    """Minimal generators of the integral closure: lattice points on or
    above the lower hull."""
    hull = lower_hull(gens)
    if hull[0][0] != 0 or hull[-1][1] != 0:
        raise ValueError("reference closure needs an m-primary ideal")
    out = []
    for (a1, b1), (a2, b2) in zip(hull, hull[1:]):
        for a in range(a1, a2):
            b = -(-(b1 * (a2 - a) + b2 * (a - a1)) // (a2 - a1))
            if not out or b < out[-1][1]:
                out.append((a, b))
    out.append(hull[-1])
    return out


def power_member(point, gens, kmax):
    """Power test: some k <= kmax has k*point above a sum of k generators."""
    level = minimize(gens)
    for k in range(1, kmax + 1):
        ka, kb = k * point[0], k * point[1]
        if any(ka >= a and kb >= b for a, b in level):
            return True
        level = multiply(level, gens)
    return False


def hull_edges(gens):
    """(primitive normal (p, q), lattice length) of each compact hull edge."""
    hull = lower_hull(gens)
    out = []
    for (a1, b1), (a2, b2) in zip(hull, hull[1:]):
        g = math.gcd(a2 - a1, b1 - b2)
        out.append((((b1 - b2) // g, (a2 - a1) // g), g))
    return out


def path_for_weights(p, q):
    """Tree point of the monomial valuation v(x)=p, v(y)=q, by Euclid."""
    path = []
    while (p, q) != (1, 1):
        if q > p:
            path.append("X")
            q -= p
        else:
            path.append("Y")
            p -= q
    return tuple(path)


def weights_for_path(path):
    p, q = 1, 1
    for label in reversed(path):
        if label == "X":
            q += p
        else:
            p += q
    return p, q


def simple_gens(p, q):
    """Simple complete ideal of v(x)=p, v(y)=q: closure of {pa + qb >= pq}."""
    return closure([(q, 0), (0, p)])


def toric_generators(factors):
    """Monomial generators of a complete ideal given as (path, mult) pairs."""
    gens = [(0, 0)]
    for path, mult in factors:
        s = simple_gens(*weights_for_path(path))
        for _ in range(mult):
            gens = multiply(gens, s)
    return closure(gens)


def toric_factors(gens):
    """Factor multiset {path: mult} of a complete monomial ideal."""
    out = {}
    for (p, q), length in hull_edges(gens):
        path = path_for_weights(p, q)
        out[path] = out.get(path, 0) + length
    return out


def monomial_text(gens):
    """Generator text as the CLI prints it, highest x-power first."""

    def term(a, b):
        parts = [("x" if a == 1 else f"x^{a}")] if a else []
        if b:
            parts.append("y" if b == 1 else f"y^{b}")
        return " ".join(parts) or "1"

    return ", ".join(term(a, b) for a, b in sorted(gens, key=lambda g: (-g[0], g[1])))
