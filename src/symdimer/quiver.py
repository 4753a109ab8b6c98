"""Quiver with relations dual to a dimer model, and group actions on it.

The dual quiver has one vertex per face and one arrow per edge, oriented
so that the white endpoint sits on the right of the arrow.  Every arrow
gets one relation equating its two return paths: clockwise around the
adjacent white node and counterclockwise around the adjacent black node.
Paths are stored as tuples of arrow ids in application order, so a path
(a, b, c) starts at the source of a and ends at the target of c.

The group of a symmetric model acts on the quiver through the model's
face and edge permutations; an orientation-reversing element keeps
sources and targets but trades the two return paths of every relation.
twisted_action gives that action on the arrows, with the sign det(h) on
the arrows of a chosen invariant perfect matching.  Under the empty
matching every sign is +1, and it is the plain action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from .dimer import (
    WHITE,
    DimerModel,
    SymmetryAction,
    faces,
    rotation_system,
)
from .lattice import Mat2


class NotInvariantMatchingError(Exception):
    """The supplied matching is not fixed setwise by the group."""


@dataclass(frozen=True)
class Arrow:
    id: int  # edge id of the model
    source: int  # face id
    target: int  # face id


@dataclass(frozen=True)
class Relation:
    """Two return paths of one arrow, around its white and black node.

    Both paths run from the arrow's target back to its source; plus goes
    clockwise around the white node, minus counterclockwise around the
    black node.
    """

    arrow: int
    plus: Tuple[int, ...]
    minus: Tuple[int, ...]


@dataclass(frozen=True)
class Quiver:
    vertices: Tuple[int, ...]
    arrows: Tuple[Arrow, ...]
    relations: Tuple[Relation, ...]
    white_cycles: Dict[int, Tuple[int, ...]]  # node id -> arrow cycle
    black_cycles: Dict[int, Tuple[int, ...]]


def _cycle_return_path(cycle: Tuple[int, ...], aid: int) -> Tuple[int, ...]:
    """The cycle with the given arrow removed, starting just after it."""
    i = cycle.index(aid)
    k = len(cycle)
    return tuple(cycle[(i + 1 + j) % k] for j in range(k - 1))


def quiver_of(model: DimerModel) -> Quiver:
    """Dual quiver with one relation per arrow.

    Faces become vertices and edges become arrows from the face left of
    the white-to-black traversal to the face on its right, which puts
    the white node on the right of every arrow.
    """
    rot = rotation_system(model)
    face_list = faces(model, rot)
    side_to_face: Dict[Tuple[int, int], int] = {}
    for f in face_list:
        for side in f.boundary:
            side_to_face[side] = f.id
    arrows: Dict[int, Arrow] = {}
    for e in model.edges:
        arrows[e.id] = Arrow(
            id=e.id,
            source=side_to_face[(e.id, 1)],
            target=side_to_face[(e.id, -1)],
        )
    white_cycles: Dict[int, Tuple[int, ...]] = {}
    black_cycles: Dict[int, Tuple[int, ...]] = {}
    for n in model.nodes:
        order = rot[n.id]
        # Arrows circulate clockwise around white nodes and counter-
        # clockwise around black ones; the rotation system is always
        # counterclockwise, so the white cycle runs through it backwards.
        cyc = tuple(reversed(order)) if n.color == WHITE else order
        k = len(cyc)
        for i in range(k):
            if arrows[cyc[i]].target != arrows[cyc[(i + 1) % k]].source:
                raise ValueError(
                    f"face corners do not chain around node {n.id}"
                )
        if n.color == WHITE:
            white_cycles[n.id] = cyc
        else:
            black_cycles[n.id] = cyc
    relations = []
    for e in model.edges:
        relations.append(
            Relation(
                arrow=e.id,
                plus=_cycle_return_path(white_cycles[e.white], e.id),
                minus=_cycle_return_path(black_cycles[e.black], e.id),
            )
        )
    return Quiver(
        vertices=tuple(f.id for f in face_list),
        arrows=tuple(arrows[e.id] for e in model.edges),
        relations=tuple(relations),
        white_cycles=white_cycles,
        black_cycles=black_cycles,
    )


@dataclass(frozen=True)
class SignedArrowMap:
    """Arrow permutations with a sign per arrow, twisted by a matching.

    Arrows on the distinguished matching pick up the determinant of the
    acting element as a sign.  The certificate records, per arrow, the
    parities of the matching edges on its two return paths; equal
    parities mean the twisted images of the two paths carry equal signs,
    so the twist preserves the relation.
    """

    elements: Tuple[Mat2, ...]
    arrow_perm: Dict[Mat2, Dict[int, int]]
    sign: Dict[Mat2, Dict[int, int]]
    matching: Tuple[int, ...]
    certificate: Dict[int, Tuple[int, int]]

    @property
    def ok(self) -> bool:
        return all(p == q for p, q in self.certificate.values())

    def path_sign(self, h: Mat2, path: Iterable[int]) -> int:
        s = 1
        for a in path:
            s *= self.sign[h][a]
        return s


def twisted_action(
    quiver: Quiver,
    action: SymmetryAction,
    d0: Iterable[int],
) -> SignedArrowMap:
    """Group action on the arrows of the model's dual quiver, twisted by
    an invariant perfect matching.

    An arrow on the matching maps to det(h) times its image; every other
    arrow maps to its plain image.  The matching must be fixed setwise
    by every element, otherwise NotInvariantMatchingError is raised.
    """
    matched = frozenset(d0)
    arrow_perm: Dict[Mat2, Dict[int, int]] = {}
    sign: Dict[Mat2, Dict[int, int]] = {}
    for h in action.elements:
        perm = dict(action.edge_perm(h))
        if {perm[e] for e in matched} != matched:
            raise NotInvariantMatchingError(
                f"element {h.rows()} moves the matching"
            )
        det = h.det()
        arrow_perm[h] = perm
        sign[h] = {
            a.id: (det if a.id in matched else 1) for a in quiver.arrows
        }
    certificate = {
        rel.arrow: (
            sum(1 for a in rel.plus if a in matched) % 2,
            sum(1 for a in rel.minus if a in matched) % 2,
        )
        for rel in quiver.relations
    }
    return SignedArrowMap(
        elements=action.elements,
        arrow_perm=arrow_perm,
        sign=sign,
        matching=tuple(sorted(matched)),
        certificate=certificate,
    )
