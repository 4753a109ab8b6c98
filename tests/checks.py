"""Predicates and references that only the tests use.

The library computes none of these itself: a perfect-matching check and
a matching's image under a group element cross-check what
enumerate_matchings and invariant_matching_at_origin return, and the
polygon a one-leg corner chop leaves cross-checks what the planner
hands to corner_cuts."""

from typing import Iterable

from symdimer.lattice import convex_hull, lattice_points, orbit


def is_perfect_matching(model, edges: Iterable[int]) -> bool:
    touched = set()
    for eid in edges:
        e = model.edge(eid)
        if e.white in touched or e.black in touched:
            return False
        touched.add(e.white)
        touched.add(e.black)
    return len(touched) == len(model.nodes)


def apply_to_matching(action, h, matching: Iterable[int]):
    perm = action.edge_perm(h)
    return tuple(sorted(perm[e] for e in matching))


def one_leg_rest(poly, group, corner):
    """Hull of the polygon's lattice points minus the orbit of a corner:
    what a one-leg chop of the corner's orbit leaves.  DegenerateError
    when it leaves no polygon."""
    orb = set(orbit(group, corner))
    return convex_hull(p for p in lattice_points(poly) if p not in orb)
