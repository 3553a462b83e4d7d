"""Density clustering over geographic points.

The radius is in meters.  A cluster is a connected component of the graph
joining points at most the radius apart (at 0, only coincident points),
which is DBSCAN with every point a core point and the property the radius
search above this module relies on.  Those components are the cuts at the
radius of one minimum spanning tree (Gower and Ross, 1969), so a single
SpanningTree answers every radius over the same points, and the part of it
inside one cluster answers every radius over that cluster.  A cut is its
member lists, each ascending, ordered by their lowest member, and dbscan()
is that cut with its radius checked.  Every minimum
spanning tree of the same weights has the same cuts, which is what lets
spanning_tree pick any one of them: it runs Boruvka rounds on a kd-tree
over 3D unit vectors, with no n-by-n array, and decides every edge by the
meters of geo.HaversineKernel, the package's one array distance kernel, so
its weights are geo.haversine_distance and pairwise_meters to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geo import GeoPoint, HaversineKernel, check_coordinate

# No package code branches on this point count: every probe cuts the spanning
# tree at any size.  It stays bound because perfbench/tracer.py reads it to
# label probes; retargeting those labels to the tree is an open ROADMAP item.
BRUTE_FORCE_LIMIT = 2000

# A chord between two computed unit vectors and the chord 2 sin(m / 2R) of
# the kernel's meters m differed by at most 1.33e-15 at every length, over 4
# million random pairs from a micrometer apart to antipodal, near the poles
# and across lon 180 (the kernel converts a difference of longitudes to
# radians, the unit vectors each longitude).  A decision compares two chords,
# so limits widened by these margins, three times twice that, keep every
# edge that exact meters could rank first.
_CHORD_ABS = 8e-15
_CHORD_REL = 1e-12
# Points per kd-tree leaf at most, and cells per block of leaf pairs.
_LEAF = 8
_BLOCK = 1 << 15
# Unit-vector coordinate of a padding slot: far from every point.
_PAD = 1e3
# Child offsets of a node pair of two distinct nodes, and of a node with itself.
_CROSS_Q, _CROSS_R = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
_SELF_Q, _SELF_R = np.array([0, 0, 1]), np.array([0, 1, 1])


class EmptyInputError(ValueError):
    """Raised when clustering is asked to label zero points."""


def _find(root: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while root[x] != x:
        root[x] = root[root[x]]
        x = root[x]
    return x


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """Minimum spanning tree over n points, edges ascending by weight in meters.

    Edge k joins heads[k] and tails[k] at weights[k].  The weights are the
    exact pairwise_meters values, so a cut agrees with the dense path at
    every radius, ties included.
    """

    n: int
    heads: np.ndarray
    tails: np.ndarray
    weights: np.ndarray

    def edges_within(self, eps_m: float) -> int:
        """How many edges weigh at most eps_m, finite and at least 0: they are
        a prefix, and each joins two components, so the cut at eps_m has n
        minus this many."""
        if not 0.0 <= eps_m < math.inf:
            raise ValueError(f"radius_m must be finite and non-negative, got {eps_m}")
        return int(np.searchsorted(self.weights, eps_m, side="right"))

    def peak_sizes(self) -> list[int]:
        """peak_sizes()[k] is the largest component joined by the first k
        edges, for every k from 0 to n - 1."""
        root = list(range(self.n))
        size = [1] * self.n
        peaks = [1]
        for a, b in zip(self.heads.tolist(), self.tails.tolist()):
            ra, rb = _find(root, a), _find(root, b)
            root[rb] = ra
            size[ra] += size[rb]
            peaks.append(max(peaks[-1], size[ra]))
        return peaks

    def cut(self, eps_m: float) -> list[list[int]]:
        """Components joined by the edges of weight at most eps_m, as member
        lists, each ascending, ordered by their lowest member."""
        k = self.edges_within(eps_m)
        root = list(range(self.n))
        for a, b in zip(self.heads[:k].tolist(), self.tails[:k].tolist()):
            ra, rb = _find(root, a), _find(root, b)
            if ra != rb:
                root[max(ra, rb)] = min(ra, rb)
        clusters: dict[int, list[int]] = {}
        for i in range(self.n):
            clusters.setdefault(_find(root, i), []).append(i)
        return list(clusters.values())

    def subtree(self, members: Sequence[int]) -> SpanningTree:
        """The edges inside one cluster of some cut, re-indexed so that
        members[k] becomes point k.  That subtree is the cluster's own
        minimum spanning tree."""
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[np.asarray(members, dtype=np.int64)] = np.arange(len(members))
        heads, tails = pos[self.heads], pos[self.tails]
        inside = (heads >= 0) & (tails >= 0)
        if int(inside.sum()) != len(members) - 1:
            raise ValueError("members are not one connected piece of the tree")
        return SpanningTree(len(members), heads[inside], tails[inside], self.weights[inside])


def spanning_tree(points: Sequence[GeoPoint]) -> SpanningTree:
    """Minimum spanning tree over exact haversine weights: Boruvka rounds on
    a kd-tree (March, Ram and Gray, KDD 2010).

    A point that fails geo.check_coordinate raises a ValueError naming it.
    Points equal in the values the kernel reads collapse first: each joins
    the lowest index at its spot by a 0 m edge.  Each round then finds every component's lightest outgoing
    edge and joins along all of them.  Edges rank by (meters, lower index,
    higher index); under that total order the chosen edges never close a
    cycle.  A breadth-first descent over pairs of kd-tree nodes finds them.
    It drops a pair whose nodes hold one and the same component, or whose
    boxes lie farther apart, in chord length, than what either node's
    components have already found.  Chords only prune and shortlist, with a
    margin that covers their rounding; the edge a component takes is decided
    by its geo.HaversineKernel meters alone, lower index first, and those
    are the weights, equal to pairwise_meters to the bit.  Leaf pairs are
    compared in blocks of a fixed cell count; beyond those, memory is the
    lists of node pairs, which stayed under 3n pairs on generated instances.
    """
    n = len(points)
    if n == 0:
        raise EmptyInputError("cannot build a spanning tree over an empty point set")
    for k, p in enumerate(points):
        check_coordinate(p, f"point {k}")
    kernel = HaversineKernel(points)
    lat, lon = kernel.lat, kernel.lon
    by_spot = np.lexsort((lon, lat))  # stable: the lowest index leads each spot
    first = np.ones(n, dtype=bool)
    first[1:] = (lat[by_spot[1:]] != lat[by_spot[:-1]]) | (lon[by_spot[1:]] != lon[by_spot[:-1]])
    lead = by_spot[first][np.cumsum(first) - 1]
    spots = np.sort(by_spot[first])
    lo, hi, meters = _boruvka(kernel, spots)
    heads = np.concatenate([lead[~first], lo])
    tails = np.concatenate([by_spot[~first], hi])
    weights = np.concatenate([np.zeros(n - len(spots)), meters])
    order = np.lexsort((tails, heads, weights))
    return SpanningTree(n, heads[order], tails[order], weights[order])


def _boruvka(kernel: HaversineKernel, spots: np.ndarray):
    """The minimum spanning tree over the distinct points spots, ascending,
    as (lower index, higher index, meters) per edge, unordered."""
    m = len(spots)
    lat, lon, cos_lat = kernel.lat[spots], np.radians(kernel.lon[spots]), kernel.cos_lat[spots]
    xyz = np.stack([cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)], axis=1)
    tree = _KdTree(xyz)
    perm = tree.perm
    rank = np.empty(m, dtype=np.int64)
    rank[perm] = np.arange(m)
    comp = np.arange(m)  # component of the point at each tree position
    n_comp = m
    out_lo, out_hi, out_m = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)], [np.empty(0)]
    while n_comp > 1:
        pos_a, pos_b = tree.candidates(comp, n_comp)
        a, b = perm[pos_a], perm[pos_b]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        meters = kernel(spots[lo], spots[hi])
        # Per component, the first candidate in the order (meters, lo, hi).
        owner = np.concatenate([comp[pos_a], comp[pos_b]])
        lo2, hi2, m2 = np.tile(lo, 2), np.tile(hi, 2), np.tile(meters, 2)
        order = np.lexsort((hi2, lo2, m2, owner))
        head = np.ones(len(order), dtype=bool)
        head[1:] = owner[order[1:]] != owner[order[:-1]]
        best = order[head]
        if not np.array_equal(owner[best], np.arange(n_comp)):
            raise AssertionError("a component found no outgoing edge")
        lo_c, hi_c, m_c = lo2[best], hi2[best], m2[best]
        comp_lo, comp_hi = comp[rank[lo_c]], comp[rank[hi_c]]
        succ = np.where(comp_lo == np.arange(n_comp), comp_hi, comp_lo)
        # Two components that chose each other chose the same edge: the
        # lower one keeps none and becomes the root of the merged one.
        labels = np.arange(n_comp)
        root = (succ[succ] == labels) & (labels < succ)
        out_lo.append(lo_c[~root])
        out_hi.append(hi_c[~root])
        out_m.append(m_c[~root])
        succ[root] = labels[root]
        while True:
            nxt = succ[succ]
            if np.array_equal(nxt, succ):
                break
            succ = nxt
        new_label = np.cumsum(root) - 1
        comp = new_label[succ[comp]]
        n_comp = int(root.sum())
    return spots[np.concatenate(out_lo)], spots[np.concatenate(out_hi)], np.concatenate(out_m)


class _KdTree:
    """A balanced kd-tree over 3D unit vectors.

    Level l has 2**l nodes; node k covers the tree positions from
    (k * m) >> l up to ((k + 1) * m) >> l, so sizes on a level differ by at
    most one and the two children of node k are nodes 2k and 2k + 1 one
    level down.  Each node splits its points at the median of its widest
    axis; the leaves hold at most _LEAF points.
    """

    def __init__(self, xyz: np.ndarray):
        m = len(xyz)
        depth = 0
        while m > _LEAF << depth:
            depth += 1
        self.depth = depth
        self.starts = [(np.arange((1 << l) + 1) * m) >> l for l in range(depth + 1)]
        perm = np.arange(m)
        for l in range(depth):
            first = self.starts[l][:-1]
            pts = xyz[perm]
            extent = np.maximum.reduceat(pts, first) - np.minimum.reduceat(pts, first)
            node = np.repeat(np.arange(1 << l), np.diff(self.starts[l]))
            key = pts[np.arange(m), extent.argmax(axis=1)[node]]
            perm = perm[np.lexsort((key, node))]
        self.perm = perm
        self.xyz = xyz[perm]
        leaf = self.starts[depth]
        box_lo = [np.minimum.reduceat(self.xyz, leaf[:-1])]
        box_hi = [np.maximum.reduceat(self.xyz, leaf[:-1])]
        for _ in range(depth):
            box_lo.append(np.minimum(box_lo[-1][0::2], box_lo[-1][1::2]))
            box_hi.append(np.maximum(box_hi[-1][0::2], box_hi[-1][1::2]))
        self.box_lo, self.box_hi = box_lo[::-1], box_hi[::-1]
        # Leaf slots: slot s of leaf k is tree position leaf[k] + s.  A short
        # leaf's last slot is position m, padding far from every unit vector.
        self.slots = int(np.diff(leaf).max())
        pos = leaf[:-1] + np.arange(self.slots)[:, None]
        self.slot_pos = np.where(pos < leaf[1:], pos, m)
        padded = np.vstack([self.xyz, np.full(3, _PAD)])
        self.slot_xyz = padded[self.slot_pos].transpose(2, 0, 1).copy()

    def candidates(self, comp: np.ndarray, n_comp: int) -> tuple[np.ndarray, np.ndarray]:
        """Tree-position pairs (a, b) in different components that include,
        for every component, all its outgoing edges that could be lightest."""
        # bound2[c]: a squared chord of some edge leaving c; the last entry
        # absorbs padding slots, labeled -1.  It starts at the edges between
        # neighbours in tree order: every component has one while there are
        # two, and a single point's neighbour is mostly in its own leaf.
        bound2 = np.full(n_comp + 1, np.inf)
        a = np.flatnonzero(comp[1:] != comp[:-1])
        d = self.xyz[a + 1] - self.xyz[a]
        d2 = np.einsum("ij,ij->i", d, d)
        np.minimum.at(bound2, comp[a], d2)
        np.minimum.at(bound2, comp[a + 1], d2)
        # Node components: the label when the node holds one, else -1.
        node_comp = [None] * (self.depth + 1)
        leaf = self.starts[self.depth][:-1]
        low, high = np.minimum.reduceat(comp, leaf), np.maximum.reduceat(comp, leaf)
        node_comp[self.depth] = np.where(low == high, low, -1)
        for l in range(self.depth - 1, -1, -1):
            below = node_comp[l + 1]
            node_comp[l] = np.where(below[0::2] == below[1::2], below[0::2], -1)

        q = r = np.zeros(1, dtype=np.int64)
        for l in range(self.depth + 1):
            if l:
                # Child pairs: all four of two distinct nodes, three of a node
                # with itself, since pairs are unordered.
                same = q == r
                qd, rd, qs = 2 * q[~same], 2 * r[~same], 2 * q[same]
                q = np.concatenate([(qd[:, None] + _CROSS_Q).ravel(), (qs[:, None] + _SELF_Q).ravel()])
                r = np.concatenate([(rd[:, None] + _CROSS_R).ravel(), (qs[:, None] + _SELF_R).ravel()])
            nc = node_comp[l]
            cq = nc[q]
            keep = (cq != nc[r]) | (cq < 0)
            q, r = q[keep], r[keep]
            keep = self._within_reach(l, q, r, comp, bound2)
            q, r = q[keep], r[keep]
        return self._leaf_pairs(q, r, comp, bound2)

    def _within_reach(self, l, q, r, comp, bound2):
        """Which node pairs (q, r) on level l could still hold a lightest
        edge: their boxes are no farther apart than either node's limit."""
        limit = np.maximum.reduceat(_margin(bound2)[comp], self.starts[l][:-1])
        lo, hi = self.box_lo[l], self.box_hi[l]
        gap = np.maximum(lo[r] - hi[q], lo[q] - hi[r])
        np.maximum(gap, 0.0, out=gap)
        reach = np.maximum(limit[q], limit[r])
        return np.einsum("ij,ij->i", gap, gap) <= reach * reach

    def _leaf_pairs(self, q, r, comp, bound2):
        """Tree-position pairs from the leaf pairs (q, r): each pair in
        different components whose chord is within the margin of what either
        component has found, _BLOCK cells at a time."""
        s = self.slots
        slot_comp = np.append(comp, -1)[self.slot_pos]
        chunk = max(1, _BLOCK // (s * s))
        found_a, found_b = [], []
        for start in range(0, len(q), chunk):
            qc, rc = q[start : start + chunk], r[start : start + chunk]
            k = len(qc)
            d2 = np.zeros((s, s, k))
            for coord in self.slot_xyz:
                d = np.subtract(coord[:, qc][:, None, :], coord[:, rc][None, :, :])
                np.square(d, out=d)
                d2 += d
            cq, cr = slot_comp[:, qc], slot_comp[:, rc]
            np.copyto(d2, np.inf, where=cq[:, None, :] == cr[None, :, :])
            row, col = d2[:, 0].copy(), d2[0].copy()
            for i in range(1, s):
                np.minimum(row, d2[:, i], out=row)
                np.minimum(col, d2[i], out=col)
            np.minimum.at(bound2, cq.ravel(), row.ravel())
            np.minimum.at(bound2, cr.ravel(), col.ravel())
            limit2 = np.square(_margin(bound2))
            limit2[-1] = -1.0
            hit = np.flatnonzero(d2 <= np.maximum(limit2[cq][:, None, :], limit2[cr][None, :, :]))
            sa, rest = np.divmod(hit, s * k)
            sb, kk = np.divmod(rest, k)
            found_a.append(self.slot_pos[sa, qc[kk]])
            found_b.append(self.slot_pos[sb, rc[kk]])
        return np.concatenate(found_a), np.concatenate(found_b)


def _margin(bound2: np.ndarray) -> np.ndarray:
    """Chord limits that cover the rounding of chords against exact h."""
    return np.sqrt(bound2) * (1.0 + _CHORD_REL) + _CHORD_ABS


def dbscan(
    points: Sequence[GeoPoint],
    radius_m: float,
    *,
    tree: Optional[SpanningTree] = None,
) -> list[list[int]]:
    """The density clusters of points at radius_m meters, finite and at
    least 0: the cut of their spanning tree, as SpanningTree.cut gives it.

    Pass a tree from spanning_tree(points) to amortize repeated runs over
    the same points at different radii.
    """
    n = len(points)
    if n == 0:
        raise EmptyInputError("cannot cluster an empty point set")
    if tree is None:
        tree = spanning_tree(points)
    elif tree.n != n:
        raise ValueError(f"spanning tree covers {tree.n} points, got {n}")
    return tree.cut(radius_m)
