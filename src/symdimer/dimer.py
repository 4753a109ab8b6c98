"""Bicolored graphs on the torus: validity, faces, symmetry detection.

A model is a set of colored nodes at exact rational positions in the
fundamental square [0,1)^2 plus straight edges; each edge records which
integer translate of its black endpoint the segment runs to.  All
predicates (crossing, angular order, symmetry) are exact: they run on the
integer frame, every position multiplied by the common denominator of all
node coordinates, so they compare ints, never Fractions.

Symmetry convention: a group element h acts on polygon (N) coordinates
as the matrix itself and on torus (M) coordinates by the inverse
transpose, composed with a rational translation t_h; elements with
determinant -1 exchange the two node colors.  The maps form a group
action: t_(e g) = linear_e t_g + t_e modulo Z^2 for all elements e, g,
so the permutations compose as the group does.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import floor, isqrt, lcm
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .lattice import Mat2, Vec, _cross

WHITE = "W"
BLACK = "B"

Pt = Tuple[Fraction, Fraction]


class TwoEdgesSameDirectionError(Exception):
    """Two edges leave one node at exactly the same angle."""

    def __init__(self, message: str, node: int = -1):
        super().__init__(message)
        self.node = node


class MergeLoopError(Exception):
    """Divalent-node removal would identify a node with itself."""


class NotSymmetricError(Exception):
    """No affine realization of the requested group maps the model to itself."""


class NoFixedFaceError(Exception):
    """The action fixes no face."""


class UnknownElementError(Exception):
    """Element is not part of the stored action."""


def frac_pt(p) -> Pt:
    return (Fraction(p[0]) - floor(p[0]), Fraction(p[1]) - floor(p[1]))


@dataclass(frozen=True)
class Node:
    id: int
    color: str
    pos: Pt


@dataclass(frozen=True)
class Edge:
    id: int
    white: int
    black: int
    offset: Vec


@dataclass(frozen=True)
class Face:
    id: int
    boundary: Tuple[Tuple[int, int], ...]  # (edge id, +1 white->black / -1)


class DimerModel:
    """Immutable container for nodes and edges with id lookups.

    Two caches ride on a model, both computed from it alone: _rotation
    (see rotation_system) and _cuts, which surgery.corner_cuts fills with
    the verdict of each (deleted edges, target polygon) candidate cut of
    this model."""

    def __init__(self, nodes: Iterable[Node], edges: Iterable[Edge]):
        self.nodes: Tuple[Node, ...] = tuple(sorted(nodes, key=lambda n: n.id))
        self.edges: Tuple[Edge, ...] = tuple(sorted(edges, key=lambda e: e.id))
        self.node_by_id: Dict[int, Node] = {}
        for n in self.nodes:
            if n.id in self.node_by_id:
                raise ValueError(f"duplicate node id {n.id}")
            if n.color not in (WHITE, BLACK):
                raise ValueError(f"node {n.id} has color {n.color!r}")
            if not (0 <= n.pos[0] < 1 and 0 <= n.pos[1] < 1):
                raise ValueError(f"node {n.id} position outside [0,1)^2")
            self.node_by_id[n.id] = n
        self.edge_by_id: Dict[int, Edge] = {}
        self._incident: Dict[int, List[int]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            if e.id in self.edge_by_id:
                raise ValueError(f"duplicate edge id {e.id}")
            w = self.node_by_id.get(e.white)
            b = self.node_by_id.get(e.black)
            if w is None or b is None:
                raise ValueError(f"edge {e.id} references a missing node")
            if w.color != WHITE or b.color != BLACK:
                raise ValueError(f"edge {e.id} endpoint colors are wrong")
            self.edge_by_id[e.id] = e
            self._incident[e.white].append(e.id)
            self._incident[e.black].append(e.id)
        # Fractions are normalized, so equal positions have equal
        # (numerator, denominator) pairs; ints hash faster than Fractions
        seen = {(x.numerator, x.denominator, y.numerator, y.denominator)
                for x, y in (n.pos for n in self.nodes)}
        if len(seen) < len(self.nodes):
            raise ValueError("two nodes share a position")
        self._rotation: Optional[Mapping[int, Tuple[int, ...]]] = None
        self._cuts: Dict[tuple, Optional[DimerModel]] = {}

    def node(self, nid: int) -> Node:
        return self.node_by_id[nid]

    def edge(self, eid: int) -> Edge:
        return self.edge_by_id[eid]

    def edges_at(self, nid: int) -> Tuple[int, ...]:
        return tuple(self._incident[nid])

    def degree(self, nid: int) -> int:
        return len(self._incident[nid])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DimerModel)
            and self.nodes == other.nodes
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"DimerModel({len(self.nodes)} nodes, {len(self.edges)} edges)"


def place(nodes: Iterable[Tuple[int, str, Pt]], edges: Iterable[Edge]) -> DimerModel:
    """The model of nodes given as (id, color, lift), with any rational
    lift, and edges whose offsets are relative to those lifts: each lift
    is reduced to [0,1)^2 and its integer part moves into its edges'
    offsets, o + floor(black) - floor(white).  The one place where lifts
    are reduced."""
    whole: Dict[int, Vec] = {}
    reduced = []
    for nid, color, lift in nodes:
        whole[nid] = (floor(lift[0]), floor(lift[1]))
        reduced.append(Node(id=nid, color=color, pos=frac_pt(lift)))
    moved = []
    for e in edges:
        kw, kb = whole[e.white], whole[e.black]
        off = (e.offset[0] + kb[0] - kw[0], e.offset[1] + kb[1] - kw[1])
        moved.append(Edge(id=e.id, white=e.white, black=e.black, offset=off))
    return DimerModel(reduced, moved)


def edge_segment(model: DimerModel, e: Edge) -> Tuple[Pt, Pt]:
    """Planar segment of an edge: white position to translated black position."""
    w = model.node(e.white).pos
    b = model.node(e.black).pos
    return w, (b[0] + e.offset[0], b[1] + e.offset[1])


def _angle_half(v) -> int:
    # 0 for angles in [0, pi), 1 for [pi, 2pi); start of the sweep is (1,0).
    if v[1] > 0 or (v[1] == 0 and v[0] > 0):
        return 0
    return 1


def angle_less(u, v) -> bool:
    """Strict counterclockwise comparison of nonzero directions from (1,0)."""
    hu, hv = _angle_half(u), _angle_half(v)
    if hu != hv:
        return hu < hv
    return u[0] * v[1] - u[1] * v[0] > 0


def angle_equal(u, v) -> bool:
    return _angle_half(u) == _angle_half(v) and u[0] * v[1] - u[1] * v[0] == 0


def rotation_system(model: DimerModel) -> Mapping[int, Tuple[int, ...]]:
    """Counterclockwise cyclic edge order at every node, by exact angles.

    The result is computed once per model and kept on it, read-only;
    a model whose edges leave a node at one angle raises every time."""
    if model._rotation is not None:
        return model._rotation
    _, segs = _scaled_segments(model)
    rot: Dict[int, Tuple[int, ...]] = {}
    for n in model.nodes:
        incident = list(model.edges_at(n.id))
        dirs = {}
        for eid in incident:
            # segments run white to black; reverse them at their black end
            p, q = segs[eid]
            if n.id != model.edge(eid).white:
                p, q = q, p
            dirs[eid] = (q[0] - p[0], q[1] - p[1])
        for i, e1 in enumerate(incident):
            for e2 in incident[i + 1 :]:
                if angle_equal(dirs[e1], dirs[e2]):
                    raise TwoEdgesSameDirectionError(
                        f"edges {e1} and {e2} leave node {n.id} at the same angle",
                        node=n.id,
                    )
        order = sorted(incident)
        # insertion sort with the exact comparator
        out: List[int] = []
        for eid in order:
            k = 0
            while k < len(out) and angle_less(dirs[out[k]], dirs[eid]):
                k += 1
            out.insert(k, eid)
        rot[n.id] = tuple(out)
    model._rotation = MappingProxyType(rot)
    return model._rotation


def next_face_side(
    model: DimerModel, rot: Mapping[int, Tuple[int, ...]], side: Tuple[int, int]
) -> Tuple[int, int]:
    """Successor of a directed edge side along the face on its left."""
    eid, d = side
    e = model.edge(eid)
    head = e.black if d == 1 else e.white
    cycle = rot[head]
    i = cycle.index(eid)
    f = cycle[(i - 1) % len(cycle)]
    head_color = model.node(head).color
    return (f, 1 if head_color == WHITE else -1)


def _side_cycles(model: DimerModel, step) -> List[Tuple[Tuple[int, int], ...]]:
    """The cycles of a permutation `step` of the directed edge sides.

    Sides are ordered by edge id, the white-to-black side first; each
    cycle is traced from the smallest side no earlier cycle holds, so it
    starts at its own smallest side and the cycles come out in the order
    of those sides.  A step that revisits a side other than its cycle's
    start raises ValueError."""
    used = set()
    out: List[Tuple[Tuple[int, int], ...]] = []
    for eid in sorted(e.id for e in model.edges):
        for start in ((eid, 1), (eid, -1)):
            if start in used:
                continue
            cycle = []
            cur = start
            while True:
                cycle.append(cur)
                used.add(cur)
                cur = step(cur)
                if cur == start:
                    break
                if cur in used:
                    raise ValueError("side tracing revisited a side; rotation system broken")
            out.append(tuple(cycle))
    return out


def faces(model: DimerModel, rot: Optional[Mapping[int, Tuple[int, ...]]] = None) -> List[Face]:
    """All faces, traced with the interior on the left of each side."""
    if rot is None:
        rot = rotation_system(model)
    cycles = _side_cycles(model, lambda side: next_face_side(model, rot, side))
    return [Face(id=i, boundary=b) for i, b in enumerate(cycles)]


def face_offset_sum(model: DimerModel, face: Face) -> Vec:
    ox = oy = 0
    for eid, d in face.boundary:
        e = model.edge(eid)
        ox += d * e.offset[0]
        oy += d * e.offset[1]
    return (ox, oy)


@dataclass
class ValidationReport:
    univalent: Tuple[int, ...] = ()
    crossing: Tuple[Tuple[int, int], ...] = ()
    same_direction: Tuple[int, ...] = ()
    non_disc_faces: Tuple[int, ...] = ()
    euler: Tuple[int, int, int] = (0, 0, 0)
    euler_ok: bool = False
    connected: bool = False

    @property
    def ok(self) -> bool:
        return (
            not self.univalent
            and not self.crossing
            and not self.same_direction
            and not self.non_disc_faces
            and self.euler_ok
            and self.connected
        )

    def failures(self) -> List[str]:
        out = []
        if self.univalent:
            out.append(f"univalent nodes {list(self.univalent)}")
        if self.crossing:
            out.append(f"crossing edge pairs {list(self.crossing)}")
        if self.same_direction:
            out.append(f"coincident edge directions at nodes {list(self.same_direction)}")
        if self.non_disc_faces:
            out.append(f"faces with nonzero offset {list(self.non_disc_faces)}")
        if not self.euler_ok:
            out.append(f"Euler count V-E+F = {self.euler[0]-self.euler[1]+self.euler[2]} != 0")
        if not self.connected:
            out.append("graph is disconnected")
        return out


def _integer_frame(model: DimerModel) -> Tuple[int, Dict[int, Vec]]:
    """The common denominator of all node coordinates, and every node's
    position multiplied by it: integer coordinates for exact predicates."""
    scale = lcm(1, *(c.denominator for n in model.nodes for c in n.pos))
    return scale, {
        n.id: (n.pos[0].numerator * (scale // n.pos[0].denominator),
               n.pos[1].numerator * (scale // n.pos[1].denominator))
        for n in model.nodes
    }


def _scaled_segments(model: DimerModel):
    """Every edge's segment (white end, translated black end) in the
    integer frame, with the frame's scale."""
    scale, pos = _integer_frame(model)
    segs = {}
    for e in model.edges:
        b = pos[e.black]
        segs[e.id] = (pos[e.white], (b[0] + e.offset[0] * scale, b[1] + e.offset[1] * scale))
    return scale, segs


def _on_segment(a, b, p) -> bool:
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_conflict(p1, p2, q1, q2) -> bool:
    """True unless the segments are disjoint or touch only at shared endpoints."""
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and d2 == 0 and d3 == 0 and d4 == 0:
        # collinear: reject any overlap longer than a point; a single shared
        # point must be an endpoint of both
        if p1 > p2:
            p1, p2 = p2, p1
        if q1 > q2:
            q1, q2 = q2, q1
        lo = max(p1, q1)
        hi = min(p2, q2)
        if lo > hi:
            return False
        if lo != hi:
            return True
        return not (lo in (p1, p2) and lo in (q1, q2))
    for d, p, (a, b) in ((d1, p1, (q1, q2)), (d2, p2, (q1, q2)),
                         (d3, q1, (p1, p2)), (d4, q2, (p1, p2))):
        if d == 0 and _on_segment(a, b, p):
            if p != a and p != b:
                return True
            # shared endpoint: fine only if it is an endpoint of the other too
            if p not in (p1, p2) or p not in (q1, q2):
                return True
    return False


def _crossing_pairs(model: DimerModel) -> List[Tuple[int, int]]:
    """Sorted pairs (e1 <= e2) of edges that conflict under some integer
    translate (for e1 == e2, a nonzero one).

    The plane is cut into square cells, g per torus width (side scale/g
    in the integer frame), g = min(scale, isqrt(E)).  Each edge's closed
    bounding box is put into every cell it meets: cell (i, j) is torus
    cell (i mod g, j mod g) taken with the translate (i div g, j div g).
    Closed boxes that meet share a cell, so two entries (e1, t1), (e2, t2)
    of one torus cell name each candidate: e1 against e2 moved by
    t1 - t2.  The cells the two boxes share form a rectangle, and the
    candidate is taken only at its lowest cell, where one of the boxes
    starts in each axis, so it is decided once; a short edge meets no
    translate of itself and names none.  A candidate whose boxes meet is
    decided this way: segments that share an endpoint and are not
    parallel meet only there; every other pair goes to the exact segment
    test.  A pair found crossing is not tested again."""
    scale, segs = _scaled_segments(model)
    g = min(scale, isqrt(len(segs)))
    boxes = {}
    cells: Dict[Tuple[int, int], List[Tuple[int, int, int, bool, bool]]] = {}
    for eid, ((x1, y1), (x2, y2)) in segs.items():
        box = boxes[eid] = (min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        i0, j0 = box[0] * g // scale, box[1] * g // scale
        for i in range(i0, box[2] * g // scale + 1):
            for j in range(j0, box[3] * g // scale + 1):
                entry = (eid, i // g, j // g, i == i0, j == j0)
                cells.setdefault((i % g, j % g), []).append(entry)
    crossing = set()
    for members in cells.values():
        for k, (e1, tx1, ty1, first_x1, first_y1) in enumerate(members):
            for e2, tx2, ty2, first_x2, first_y2 in members[k + 1 :]:
                # edges enter in id order, so e1 <= e2
                if not ((first_x1 or first_x2) and (first_y1 or first_y2)):
                    continue
                if (e1, e2) in crossing:
                    continue
                dx, dy = (tx1 - tx2) * scale, (ty1 - ty2) * scale
                b1, b2 = boxes[e1], boxes[e2]
                if (
                    b2[0] + dx > b1[2]
                    or b2[2] + dx < b1[0]
                    or b2[1] + dy > b1[3]
                    or b2[3] + dy < b1[1]
                ):
                    continue
                p1, p2 = segs[e1]
                (u1, v1), (u2, v2) = segs[e2]
                q1, q2 = (u1 + dx, v1 + dy), (u2 + dx, v2 + dy)
                if (p1 == q1 or p1 == q2 or p2 == q1 or p2 == q2) and (
                    (p2[0] - p1[0]) * (v2 - v1) != (p2[1] - p1[1]) * (u2 - u1)
                ):
                    continue
                if _segments_conflict(p1, p2, q1, q2):
                    crossing.add((e1, e2))
    return sorted(crossing)


def validate(model: DimerModel) -> ValidationReport:
    """Check the axioms: valence, planarity, disc faces, connectivity."""
    univalent = tuple(n.id for n in model.nodes if model.degree(n.id) < 2)
    crossing = tuple(_crossing_pairs(model))
    same_direction: Tuple[int, ...] = ()
    non_disc: Tuple[int, ...] = ()
    euler = (len(model.nodes), len(model.edges), 0)
    euler_ok = False
    try:
        rot = rotation_system(model)
    except TwoEdgesSameDirectionError as exc:
        same_direction = (exc.node,)
    else:
        fs = faces(model, rot)
        euler = (len(model.nodes), len(model.edges), len(fs))
        euler_ok = euler[0] - euler[1] + euler[2] == 0
        non_disc = tuple(
            f.id for f in fs if face_offset_sum(model, f) != (0, 0)
        )
    # connectivity over the undirected graph
    connected = False
    if model.nodes:
        seen = {model.nodes[0].id}
        stack = [model.nodes[0].id]
        while stack:
            nid = stack.pop()
            for eid in model.edges_at(nid):
                e = model.edge(eid)
                for other in (e.white, e.black):
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
        connected = len(seen) == len(model.nodes)
    return ValidationReport(
        univalent=univalent,
        crossing=crossing,
        same_direction=same_direction,
        non_disc_faces=non_disc,
        euler=euler,
        euler_ok=euler_ok,
        connected=connected,
    )


def remove_divalent(model: DimerModel) -> DimerModel:
    """Merge away all degree-2 nodes (each divalent node's two neighbors are
    identified and placed at the divalent node's position).

    The smallest divalent id is merged first.  Every node's incident edge
    ids are kept and updated on each merge; only the merged node's degree
    changes, so a heap of candidate ids finds the next divalent node."""
    nodes = {n.id: n for n in model.nodes}
    edges = {e.id: e for e in model.edges}
    incident = {nid: set(model.edges_at(nid)) for nid in nodes}
    heap = [nid for nid in nodes if len(incident[nid]) == 2]
    heapq.heapify(heap)
    while heap:
        div = heapq.heappop(heap)
        if div not in nodes or len(incident[div]) != 2:
            continue
        v = nodes[div]
        e1, e2 = (edges[eid] for eid in sorted(incident[div]))
        if v.color == WHITE:
            n1, n2 = e1.black, e2.black
        else:
            n1, n2 = e1.white, e2.white
        o1, o2 = e1.offset, e2.offset
        if n1 == n2:
            raise MergeLoopError(
                f"divalent node {div} has a single neighbor {n1}"
            )
        merged = Node(id=v.id, color=nodes[n1].color, pos=v.pos)
        del edges[e1.id]
        del edges[e2.id]
        del nodes[div]
        del nodes[n1]
        del nodes[n2]
        nodes[merged.id] = merged
        moved = (incident.pop(n1) | incident.pop(n2)) - {e1.id, e2.id}
        incident[merged.id] = moved
        for eid in moved:
            e = edges[eid]
            if e.white in (n1, n2):
                shift = o1 if e.white == n1 else o2
                edges[eid] = Edge(
                    id=e.id,
                    white=merged.id,
                    black=e.black,
                    offset=(e.offset[0] - shift[0], e.offset[1] - shift[1]),
                )
            else:
                shift = o1 if e.black == n1 else o2
                edges[eid] = Edge(
                    id=e.id,
                    white=e.white,
                    black=merged.id,
                    offset=(e.offset[0] - shift[0], e.offset[1] - shift[1]),
                )
        if len(moved) == 2:
            heapq.heappush(heap, merged.id)
    return DimerModel(nodes.values(), edges.values())


# ---------------------------------------------------------------------------
# Symmetry


@dataclass(frozen=True)
class ElementAction:
    element: Mat2
    linear: Mat2  # action on torus coordinates (inverse transpose of element)
    translation: Pt
    node_perm: Dict[int, int]
    edge_perm: Dict[int, int]
    face_perm: Dict[int, int]


@dataclass
class SymmetryAction:
    elements: Tuple[Mat2, ...]
    maps: Dict[Mat2, ElementAction]

    def node_perm(self, h: Mat2) -> Dict[int, int]:
        return self._get(h).node_perm

    def edge_perm(self, h: Mat2) -> Dict[int, int]:
        return self._get(h).edge_perm

    def face_perm(self, h: Mat2) -> Dict[int, int]:
        return self._get(h).face_perm

    def _get(self, h: Mat2) -> ElementAction:
        if h not in self.maps:
            raise UnknownElementError(f"{h.rows()} is not in the stored group")
        return self.maps[h]

    def edge_orbits(self) -> Dict[int, FrozenSet[int]]:
        """Each edge's orbit: its images under the elements."""
        perms = [self.maps[h].edge_perm for h in self.elements]
        return {e: frozenset(p[e] for p in perms) for e in perms[0]}

    def fixed_faces(self) -> List[int]:
        ids = None
        for h in self.elements:
            fixed = {f for f, g in self.maps[h].face_perm.items() if f == g}
            ids = fixed if ids is None else ids & fixed
        return sorted(ids or ())


def fixed_face(action: SymmetryAction) -> int:
    fixed = action.fixed_faces()
    if not fixed:
        raise NoFixedFaceError("no face is fixed by the whole group")
    return fixed[0]


def _element_map(
    model: DimerModel, h: Mat2, linear: Mat2, t: Vec, frame, pos_index, edge_index
):
    """Node and edge permutations of the affine map x -> linear x + t, or
    None if the map does not preserve the model.  frame is the integer
    frame (scale, node positions) and t is given in it; pos_index maps
    frame positions and edge_index (white, black, offset) keys to ids."""
    scale, pos = frame
    det = h.det()
    node_perm: Dict[int, int] = {}
    kappa: Dict[int, Vec] = {}
    for n in model.nodes:
        x, y = linear.apply(pos[n.id])
        kx, x = divmod(x + t[0], scale)
        ky, y = divmod(y + t[1], scale)
        target = pos_index.get((x, y))
        if target is None:
            return None
        tn = model.node(target)
        want = n.color if det == 1 else (BLACK if n.color == WHITE else WHITE)
        if tn.color != want:
            return None
        node_perm[n.id] = target
        kappa[n.id] = (kx, ky)
    edge_perm: Dict[int, int] = {}
    for e in model.edges:
        lo = linear.apply(e.offset)
        kw, kb = kappa[e.white], kappa[e.black]
        if det == 1:
            key = (
                node_perm[e.white],
                node_perm[e.black],
                (lo[0] + kb[0] - kw[0], lo[1] + kb[1] - kw[1]),
            )
        else:
            key = (
                node_perm[e.black],
                node_perm[e.white],
                (kw[0] - kb[0] - lo[0], kw[1] - kb[1] - lo[1]),
            )
        img_e = edge_index.get(key)
        if img_e is None:
            return None
        edge_perm[e.id] = img_e
    if len(set(node_perm.values())) != len(node_perm):
        return None
    if len(set(edge_perm.values())) != len(edge_perm):
        return None
    return node_perm, edge_perm


def _candidate_translations(model: DimerModel, h: Mat2, linear: Mat2, frame) -> List[Vec]:
    """Translations, in the integer frame, that take the first node onto a
    node of the color h requires, in increasing order."""
    scale, pos = frame
    base = model.nodes[0]
    det = h.det()
    want = base.color if det == 1 else (BLACK if base.color == WHITE else WHITE)
    img = linear.apply(pos[base.id])
    out = set()
    for n in model.nodes:
        if n.color == want:
            p = pos[n.id]
            out.add(((p[0] - img[0]) % scale, (p[1] - img[1]) % scale))
    return sorted(out)


def _generating_words(elements: Sequence[Mat2]):
    """A smallest generating subset plus a word (generator index list) for
    every element; the trivial group has no generators."""
    from itertools import combinations

    elems = set(elements)
    for r in (0, 1, 2):
        for gens in combinations(sorted(elements), r):
            words = {Mat2.identity(): []}
            frontier = [Mat2.identity()]
            while frontier:
                nxt = []
                for e in frontier:
                    for gi, g in enumerate(gens):
                        p = e.mul(g)
                        if p in elems and p not in words:
                            words[p] = words[e] + [gi]
                            nxt.append(p)
                frontier = nxt
            if len(words) == len(elems):
                return list(gens), words
    raise ValueError("group needs more than two generators; unexpected")


def _face_perm_from_sides(model, face_list, side_to_face, edge_perm) -> Optional[Dict[int, int]]:
    perm: Dict[int, int] = {}
    for f in face_list:
        imgs = {side_to_face[(edge_perm[eid], d)] for eid, d in f.boundary}
        if len(imgs) != 1:
            return None
        perm[f.id] = imgs.pop()
    if len(set(perm.values())) != len(perm):
        return None
    return perm


def symmetry_actions(
    model: DimerModel, elements: Iterable[Mat2]
) -> Iterator[SymmetryAction]:
    """Yield every affine action of the group on the model.

    The search runs in the integer frame.  A generator's candidate
    translations take the first node onto each node of the required
    color; each is tested on its own, at most once per call: first
    against the generator's own relation g^n = 1 (n its order), then
    with one node, edge and face map.  A translation that fails for its
    generator is part of no action.  For one passing translation per
    generator, every other element h = e g, read off its
    _generating_words word, gets the translation
    t_h = frac(linear_e t_g + t_e).  The choice is
    dropped unless that law holds for every element e and generator g:
    else some relation of the group acts as a nonzero torus translation
    and the maps are no group action.  Only then are the permutations
    composed, perm_e o perm_g.  The cost is one map per (generator,
    candidate), a few int operations per (choice, element, generator)
    and one composition per (action, element).  Actions are yielded in
    lexicographic order of the generators' translations, each list
    sorted.  The identity's map is computed once per call.  Distinct
    actions can fix a face, a node, or nothing."""
    elems = tuple(sorted(set(elements)))
    ident = Mat2.identity()
    if ident not in elems:
        raise ValueError("element list must contain the identity")
    gens, words = _generating_words(elems)
    lin = {h: h.contragredient() for h in elems}
    relations = [(e, g, e.mul(g)) for e in elems for g in gens]
    if any(eg not in lin for _, _, eg in relations):
        raise ValueError("elements do not form a group")
    face_list = faces(model)
    frame = _integer_frame(model)
    scale = frame[0]
    pos_index = {p: nid for nid, p in frame[1].items()}
    edge_index = {(e.white, e.black, e.offset): e.id for e in model.edges}
    side_to_face = {side: f.id for f in face_list for side in f.boundary}

    def action(h: Mat2, t: Vec, node_perm, edge_perm, face_perm) -> ElementAction:
        translation = (Fraction(t[0], scale), Fraction(t[1], scale))
        return ElementAction(h, lin[h], translation, node_perm, edge_perm, face_perm)

    def realize(h: Mat2, t: Vec):
        res = _element_map(model, h, lin[h], t, frame, pos_index, edge_index)
        if res is None:
            return None
        face_perm = _face_perm_from_sides(model, face_list, side_to_face, res[1])
        if face_perm is None:
            return None
        return t, action(h, t, res[0], res[1], face_perm)

    identity = realize(ident, (0, 0))
    if identity is None:
        return
    cand = [_candidate_translations(model, g, lin[g], frame) for g in gens]
    tested: List[Dict[Vec, Optional[Tuple[Vec, ElementAction]]]] = [{} for _ in gens]

    def cycles(g: Mat2, t: Vec) -> bool:
        # g^n = 1 for the order n of g, so g^n must translate by 0
        x, y = t
        power = g
        while power != ident:
            x, y = lin[g].apply((x, y))
            x, y = (x + t[0]) % scale, (y + t[1]) % scale
            power = power.mul(g)
        return (x, y) == (0, 0)

    def passing(i: int):
        # inner generators are iterated once per outer choice: map each
        # candidate once, on first use
        for t in cand[i]:
            if t not in tested[i]:
                tested[i][t] = realize(gens[i], t) if cycles(gens[i], t) else None
            if tested[i][t] is not None:
                yield tested[i][t]

    # (h, e, index of g) with h = e g, e before h: shortest words first;
    # every prefix of a word is the word of an element
    by_word = {tuple(w): h for h, w in words.items()}
    steps = [
        (h, by_word[tuple(words[h][:-1])], words[h][-1])
        for h in sorted(elems, key=lambda m: len(words[m]))
        if len(words[h]) > 1
    ]

    def compose(choice) -> Optional[SymmetryAction]:
        shift = {ident: identity[0], **{g: t for g, (t, _) in zip(gens, choice)}}

        def law(e: Mat2, g: Mat2) -> Vec:
            x, y = lin[e].apply(shift[g])
            return (x + shift[e][0]) % scale, (y + shift[e][1]) % scale

        for h, e, gi in steps:
            shift[h] = law(e, gens[gi])
        if any(shift[eg] != law(e, g) for e, g, eg in relations):
            return None
        built = {ident: identity[1], **{g: a for g, (_, a) in zip(gens, choice)}}
        for h, e, gi in steps:
            ae, ag = built[e], choice[gi][1]
            built[h] = action(
                h,
                shift[h],
                {k: ae.node_perm[v] for k, v in ag.node_perm.items()},
                {k: ae.edge_perm[v] for k, v in ag.edge_perm.items()},
                {k: ae.face_perm[v] for k, v in ag.face_perm.items()},
            )
        return SymmetryAction(elements=elems, maps={h: built[h] for h in elems})

    def search(i: int, choice: List[Tuple[Vec, ElementAction]]) -> Iterator[SymmetryAction]:
        if i == len(gens):
            composed = compose(choice)
            if composed is not None:
                yield composed
            return
        for chosen in passing(i):
            yield from search(i + 1, choice + [chosen])

    yield from search(0, [])


def find_symmetry(model: DimerModel, elements: Iterable[Mat2]) -> SymmetryAction:
    """The group's action on the model: the first action of
    symmetry_actions that fixes a face, else the first action.  Raises
    NotSymmetricError when the group does not act."""
    first = None
    for act in symmetry_actions(model, elements):
        if act.fixed_faces():
            return act
        if first is None:
            first = act
    if first is None:
        raise NotSymmetricError("no affine action of the group preserves the model")
    return first
