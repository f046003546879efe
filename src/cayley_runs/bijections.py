"""Bijections between marked trees, mappings, and run partitions.

Two constructions live here.  The first identifies a pair (tree, marked
node) with a mapping: walking from the mark to the root, the
right-to-left maxima of the label sequence are re-wired into cycles, so
a tree with a mark corresponds to exactly one mapping and vice versa.
The second decomposes a mapping into its ascending runs, producing an
ordered set partition (blocks sorted by decreasing maximum) together
with a link sequence recording the image of each block's largest
element; the pair determines the mapping uniquely.

Decoding needs no sort: one pass records each label's block, and one
upward scan over the labels gives each label its predecessor in its
block and each block its top.  It validates the pair from these alone,
which a lemma shows is the same as re-encoding it; ``forbidden_links``
states the restriction for the counting oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import CayleyTree, LabelOutOfRangeError, Mapping, _cycles, make_tree
from .exact import DEFAULT_EXHAUSTIVE_BOUND, SizeTooLargeError
from .runs import _smaller_preimage

LinkSequence = tuple[int, ...]


class InvalidLinkSequenceError(ValueError):
    """Link sequence violates the restriction tied to its partition."""


@dataclass(frozen=True)
class MarkedTree:
    tree: CayleyTree
    mark: int

    def __post_init__(self) -> None:
        if not 1 <= self.mark <= self.tree.n:
            raise LabelOutOfRangeError(f"mark {self.mark} outside [1, {self.tree.n}]")


@dataclass(frozen=True)
class RootPath:
    """Node sequence from a mark up to the root, with its right-to-left maxima.

    ``maxima_indices`` are 0-based positions p into ``nodes`` such that
    nodes[p] exceeds every later entry; the last position is always one
    of them.
    """

    nodes: tuple[int, ...]
    maxima_indices: tuple[int, ...]


def right_to_left_maxima(values) -> tuple[int, ...]:
    """0-based positions of elements strictly larger than everything after them."""
    out = []
    best = 0
    for p in range(len(values) - 1, -1, -1):
        if values[p] > best:
            out.append(p)
            best = values[p]
    out.reverse()
    return tuple(out)


def root_path(t: CayleyTree, w: int) -> RootPath:
    nodes = [w]
    while nodes[-1] != t.root:
        nodes.append(t.parent[nodes[-1] - 1])
    return RootPath(nodes=tuple(nodes), maxima_indices=right_to_left_maxima(nodes))


def tree_to_mapping(mt: MarkedTree) -> Mapping:
    """Turn (tree, mark) into a mapping by cycling the mark-to-root path.

    Off the path-maxima, every node keeps its parent as image.  The
    right-to-left maxima close cycles instead: the first one maps to the
    mark, each later one to the parent of the previous maximum.  The
    path nodes become exactly the cyclic nodes of the result.

    Every image entry is a parent label of the valid tree or the mark,
    which ``MarkedTree`` has checked, so the Mapping is built directly
    rather than validated again by ``make_mapping``.
    """
    t = mt.tree
    rp = root_path(t, mt.mark)
    nodes, idxs = rp.nodes, rp.maxima_indices
    image = list(t.parent)
    image[nodes[idxs[0]] - 1] = nodes[0]
    for ell in range(1, len(idxs)):
        image[nodes[idxs[ell]] - 1] = t.parent[nodes[idxs[ell - 1]] - 1]
    return Mapping(n=t.n, image=tuple(image))


def mapping_to_tree(m: Mapping) -> MarkedTree:
    """Inverse construction: cut each cycle at its largest node and chain the pieces.

    With the cycle maxima sorted decreasingly as c_1 > ... > c_t and
    d_i = f(c_i), the edges (c_i, d_i) are replaced by (c_i, d_{i+1});
    c_t becomes the root and d_1 the mark.
    """
    c = sorted((max(cycle) for cycle in _cycles(m.image)[0]), reverse=True)
    d = [m.image[ci - 1] for ci in c]
    parent = list(m.image)
    for i in range(len(c) - 1):
        parent[c[i] - 1] = d[i + 1]
    parent[c[-1] - 1] = c[-1]
    return MarkedTree(tree=make_tree(parent), mark=d[0])


@dataclass(frozen=True)
class OrderedSetPartition:
    """Disjoint non-empty blocks covering [n], ordered by decreasing maximum."""

    blocks: tuple[frozenset[int], ...]

    @property
    def n(self) -> int:
        return sum(map(len, self.blocks))


def make_partition(blocks) -> OrderedSetPartition:
    try:
        raw = [list(b) for b in blocks]
    except TypeError:
        raise ValueError("blocks must be a sequence of label collections") from None
    if any(type(x) is not int for b in raw for x in b):  # bool is an int subclass
        raise ValueError("block labels must be integers")
    blocks = tuple(frozenset(b) for b in raw)
    if not blocks or any(not b for b in blocks):
        raise ValueError("blocks must be non-empty")
    n = sum(len(b) for b in raw)  # a repeated label leaves [n] uncovered
    union = set().union(*blocks)
    if union != set(range(1, n + 1)):
        raise ValueError("blocks must partition [n]")
    maxima = [max(b) for b in blocks]
    if any(later >= earlier for later, earlier in zip(maxima[1:], maxima)):
        raise ValueError("blocks must be ordered by strictly decreasing maximum")
    return OrderedSetPartition(blocks=blocks)


def forbidden_links(partition: OrderedSetPartition) -> tuple[frozenset[int], ...]:
    """Per block j, the values its link must avoid.

    Block i < j contributes the smallest element of block i that exceeds
    max(block j); such an element always exists since maxima decrease.
    """
    out = []
    maxima = [max(b) for b in partition.blocks]
    for j in range(len(partition.blocks)):
        out.append(frozenset(
            min(x for x in partition.blocks[i] if x > maxima[j])
            for i in range(j)
        ))
    return tuple(out)


def encode_partition(m: Mapping) -> tuple[OrderedSetPartition, LinkSequence]:
    """Decompose a mapping into run blocks plus the links that glue them.

    Repeatedly take the largest unused element, then descend through the
    largest unused preimage with a smaller label until none exists; the
    visited elements form one block (an ascending run, read increasingly),
    and the link stores the image of the block's largest element.

    Lemma: when the descent reaches j, no smaller preimage i of j is in a
    block yet.  Tops are taken unused and decreasing, so i < j <= current
    top is no earlier block's top; a non-top element's image is in its own
    block, so an earlier block holding i would hold f(i) = j, still unused.
    So the blocks are the chains of ``down``, and i is used before it is a
    candidate top exactly when i = down[f(i)].
    """
    down = _smaller_preimage(m.image)
    blocks: list[frozenset[int]] = []
    links: list[int] = []
    for top in range(m.n, 0, -1):
        if down[m.image[top - 1]] == top:
            continue
        block = []
        cur = top
        while cur:
            block.append(cur)
            cur = down[cur]
        blocks.append(frozenset(block))
        links.append(m.image[top - 1])
    return OrderedSetPartition(blocks=tuple(blocks)), tuple(links)


def decode_partition(s: OrderedSetPartition, x: LinkSequence) -> Mapping:
    """Rebuild the mapping from run blocks and links.

    Within a block each element maps to the next larger one, and the
    largest element maps to its link.  Rejects link sequences that break
    the restriction, since those pairs are outside the image of
    ``encode_partition``: the encoding is a bijection onto the restricted
    pairs, so a pair is valid exactly when its mapping re-encodes to it.

    Lemma: with pred[b] = a for consecutive a < b of a block (0 for a
    block's least element), the encoder's down[j] equals pred[j] for
    every j exactly when no block with top t and link x has
    pred[x] < t < x.  The smaller preimages of j are pred[j] and the tops
    t < j linked to j, and down[j] is the largest of them.  When down is
    pred, the encoder's blocks are these blocks, taken by decreasing top,
    each with its link; when it is not, some top t = down[j] joins j's
    block in the encoding but not here.  So the pair re-encodes to itself
    exactly when block maxima strictly decrease and no such block exists.

    pred and the tops come from two linear passes, with no block sorted,
    as in ``kernels.decode_partition``.  The owner pass records owner[a],
    the index of a's block.  The upward scan visits a = 1, ..., n and
    keeps last[k], the largest label of block k visited so far (0 before
    any).  When a is visited, every label of its block below a has been
    visited and none above it, so last[owner[a]] is the largest label of
    the block below a: it is pred[a], and f(pred[a]) = a.  After the scan
    last[k] is the largest label of block k, its top, which maps to link k.
    The loop that writes each top's link also checks the two conditions
    of the lemma, so the pair is validated as it is written.

    The labels are checked to be ints in [1, n] and the blocks non-empty.
    The blocks hold n labels in all, so a label in two blocks leaves some
    label with no owner, which is rejected before the scan.  Then every
    label in [1, n] gets exactly one image, the next label of its block
    or a link checked to lie in [1, n], so the image needs no second check.
    """
    n = s.n
    if len(x) != len(s.blocks):
        raise InvalidLinkSequenceError(
            f"{len(x)} links for {len(s.blocks)} blocks")
    for nj in x:
        if type(nj) is not int or not 1 <= nj <= n:
            raise InvalidLinkSequenceError(f"link {nj!r} outside [1, {n}]")
    labels = list(itertools.chain.from_iterable(s.blocks))
    # bool, float and str are not int; a partition with no blocks fails here too
    if set(map(type, labels)) != {int}:
        raise LabelOutOfRangeError("block labels must be ints")
    if min(labels) < 1 or max(labels) > n or not all(s.blocks):
        raise LabelOutOfRangeError(f"a block is empty or has a label outside [1, {n}]")
    owner = [-1] * (n + 1)  # slot 0 is never read
    for k, block in enumerate(s.blocks):
        for a in block:
            owner[a] = k
    if -1 in owner[1:]:
        raise LabelOutOfRangeError(
            f"label {owner.index(-1, 1)} is in no block, so another is in two")
    last = [0] * len(s.blocks)
    pred = [0] * (n + 1)
    image = [0] * (n + 1)  # image[a] = f(a); a block's least writes the dropped slot 0
    for a in range(1, n + 1):
        k = owner[a]
        p = pred[a] = last[k]
        image[p] = a
        last[k] = a
    earlier = n + 1  # the previous block's top; every top is at most n
    for top, nj in zip(last, x):
        if not top < earlier or pred[nj] < top < nj:
            raise InvalidLinkSequenceError(
                "a link is forbidden by an earlier block: the pair does not re-encode to itself")
        image[top] = nj
        earlier = top
    return Mapping(n=n, image=tuple(image[1:]))


def _set_partitions(n: int, m: int) -> Iterator[list[list[int]]]:
    """All set partitions of [n] into exactly m blocks."""
    blocks: list[list[int]] = []

    def place(k: int) -> Iterator[list[list[int]]]:
        if k > n:
            if len(blocks) == m:
                yield [list(b) for b in blocks]
            return
        if m - len(blocks) > n - k + 1:
            return
        for b in blocks:
            b.append(k)
            yield from place(k + 1)
            b.pop()
        if len(blocks) < m:
            blocks.append([k])
            yield from place(k + 1)
            blocks.pop()

    yield from place(1)


def count_valid_pairs(n: int, m: int, max_size: int = DEFAULT_EXHAUSTIVE_BOUND) -> int:
    """Count (partition, link sequence) pairs satisfying the restriction.

    Enumerates every ordered set partition of [n] into m blocks and, per
    block, counts the admissible link values from the explicit forbidden
    sets.  Exhaustive oracle, intended for small n.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if n > max_size:
        raise SizeTooLargeError(f"n={n} exceeds exhaustive bound {max_size}")
    total = 0
    for raw in _set_partitions(n, m):
        partition = make_partition(sorted((frozenset(b) for b in raw),
                                          key=max, reverse=True))
        prod = 1
        for bad in forbidden_links(partition):
            prod *= n - len(bad)
        total += prod
    return total
