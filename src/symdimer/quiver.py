"""Quiver with relations dual to a dimer model, and group actions on it.

The dual quiver has one vertex per face and one arrow per edge, oriented
so that the white endpoint sits on the right of the arrow.  Every arrow
gets one relation equating its two return paths: clockwise around the
adjacent white node and counterclockwise around the adjacent black node.
Paths are stored as tuples of arrow ids in application order, so a path
(a, b, c) starts at the source of a and ends at the target of c.

A symmetric model induces vertex and arrow permutations per group
element; orientation-reversing elements keep sources and targets but
trade the two return paths of every relation.  The twisted action
additionally flips the sign of arrows lying on a chosen invariant
perfect matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

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

    def arrow(self, aid: int) -> Arrow:
        for a in self.arrows:
            if a.id == aid:
                return a
        raise KeyError(f"no arrow {aid}")

    def source(self, aid: int) -> int:
        return self.arrow(aid).source

    def target(self, aid: int) -> int:
        return self.arrow(aid).target

    def relation(self, aid: int) -> Relation:
        for r in self.relations:
            if r.arrow == aid:
                return r
        raise KeyError(f"no relation for arrow {aid}")

    def is_path(self, path: Tuple[int, ...]) -> bool:
        for prev, nxt in zip(path, path[1:]):
            if self.target(prev) != self.source(nxt):
                return False
        return True


@dataclass(frozen=True)
class StabilityParameter:
    theta: Dict[int, int]

    def __call__(self, vertex: int) -> int:
        return self.theta[vertex]

    def pairing(self, dimension: Dict[int, int]) -> int:
        return sum(self.theta[v] * d for v, d in dimension.items())

    @property
    def total(self) -> int:
        """Value on the dimension vector with a one at every vertex."""
        return sum(self.theta.values())


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
class QuiverAction:
    """One group element on the dual quiver."""

    element: Mat2
    vertex_perm: Dict[int, int]
    arrow_perm: Dict[int, int]
    reverses_orientation: bool  # determinant -1


def action_on_quiver(
    model: DimerModel, action: SymmetryAction
) -> Dict[Mat2, QuiverAction]:
    """Vertex and arrow permutations induced by a symmetric model.

    Face permutations become vertex permutations and edge permutations
    become arrow permutations.  Every element carries sources to sources
    and targets to targets: an orientation-reversing element flips both
    the side each face sits on and the arrow direction, and the two
    flips cancel.  What does change under determinant minus one is the
    color of the adjacent nodes, so the white and black return paths
    trade places.
    """
    quiver = quiver_of(model)
    src = {a.id: a.source for a in quiver.arrows}
    tgt = {a.id: a.target for a in quiver.arrows}
    out: Dict[Mat2, QuiverAction] = {}
    for h in action.elements:
        vperm = dict(action.face_perm(h))
        aperm = dict(action.edge_perm(h))
        for aid, img in aperm.items():
            if (src[img], tgt[img]) != (vperm[src[aid]], vperm[tgt[aid]]):
                raise ValueError(
                    f"element {h.rows()} does not act on the quiver"
                )
        out[h] = QuiverAction(
            element=h,
            vertex_perm=vperm,
            arrow_perm=aperm,
            reverses_orientation=h.det() == -1,
        )
    return out


def map_path(qa: QuiverAction, path: Tuple[int, ...]) -> Tuple[int, ...]:
    """Image of a path, arrow by arrow in the same application order."""
    return tuple(qa.arrow_perm[a] for a in path)


def relations_equivariant(quiver: Quiver, qa: QuiverAction) -> bool:
    """Whether the element sends every relation pair to a relation pair.

    Orientation-preserving elements match plus with plus; reversing ones
    exchange the white and black return paths.
    """
    for rel in quiver.relations:
        img = quiver.relation(qa.arrow_perm[rel.arrow])
        if qa.reverses_orientation:
            want = (map_path(qa, rel.minus), map_path(qa, rel.plus))
        else:
            want = (map_path(qa, rel.plus), map_path(qa, rel.minus))
        if (img.plus, img.minus) != want:
            return False
    return True


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
    model: DimerModel,
    action: SymmetryAction,
    d0: Iterable[int],
) -> SignedArrowMap:
    """Group action on arrows twisted by an invariant perfect matching.

    An arrow on the matching maps to det(h) times its image; every other
    arrow maps to its plain image.  The matching must be fixed setwise
    by every element, otherwise NotInvariantMatchingError is raised.
    """
    matched = frozenset(d0)
    quiver = quiver_of(model)
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


def v0_generated_theta(
    quiver: Quiver,
    v0: int,
    vertex_perms: Optional[Iterable[Dict[int, int]]] = None,
) -> StabilityParameter:
    """Stability parameter positive away from v0 and zero on the total
    dimension vector.

    When vertex permutations are supplied (for instance from
    action_on_quiver with the fixed face as v0), the parameter is
    checked to be invariant under each of them.
    """
    if v0 not in quiver.vertices:
        raise ValueError(f"vertex {v0} is not in the quiver")
    theta = {v: 1 for v in quiver.vertices}
    theta[v0] = -(len(quiver.vertices) - 1)
    param = StabilityParameter(theta=theta)
    if vertex_perms is not None:
        for perm in vertex_perms:
            if any(theta[perm[v]] != theta[v] for v in quiver.vertices):
                raise ValueError(
                    "stability parameter is not invariant under the action"
                )
    return param
