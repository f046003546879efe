"""Labelled rooted trees and mappings on [n] = {1, ..., n}.

Trees are stored as parent arrays with the root pointing to itself;
mappings as image arrays.  All labels are 1-based at every interface,
matching the usual combinatorial convention for [n].  Values are
immutable after construction and every operation here is pure, so they
can be shared freely across worker processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class InvalidTreeError(ValueError):
    """Parent array does not encode a rooted tree."""


class NoRootError(InvalidTreeError):
    pass


class MultipleRootsError(InvalidTreeError):
    pass


class CycleDetectedError(InvalidTreeError):
    pass


class LabelOutOfRangeError(ValueError):
    """An entry lies outside [1, n]."""


@dataclass(frozen=True)
class CayleyTree:
    """Rooted labelled tree on [n]; ``parent[v-1]`` is the parent of v, root is self-parented."""

    n: int
    parent: tuple[int, ...]
    root: int

    def parent_of(self, v: int) -> int:
        return self.parent[v - 1]

    def to_text(self) -> str:
        return " ".join(str(p) for p in self.parent)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "parent": list(self.parent)})


@dataclass(frozen=True)
class Mapping:
    """Function [n] -> [n]; ``image[i-1]`` is f(i)."""

    n: int
    image: tuple[int, ...]

    def apply(self, i: int) -> int:
        return self.image[i - 1]

    def to_text(self) -> str:
        return " ".join(str(j) for j in self.image)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "image": list(self.image)})


@dataclass(frozen=True)
class ComponentDecomposition:
    """Weakly connected components of a functional digraph plus its cyclic nodes."""

    components: tuple[frozenset[int], ...]
    cyclic: frozenset[int]


def _check_labels(values: tuple[int, ...]) -> None:
    n = len(values)
    if n < 1:
        raise LabelOutOfRangeError("need at least one node")
    for x in values:
        if type(x) is not int or not 1 <= x <= n:  # bool is an int subclass
            raise LabelOutOfRangeError(f"label {x!r} outside [1, {n}]")


def make_mapping(image) -> Mapping:
    """Validate an image array and wrap it as a Mapping."""
    image = tuple(image)
    _check_labels(image)
    return Mapping(n=len(image), image=image)


def make_tree(parent) -> CayleyTree:
    """Validate a parent array (root self-parented) and wrap it as a CayleyTree.

    Raises NoRootError / MultipleRootsError / CycleDetectedError when the
    array has zero or several fixed points, or a non-root cycle.
    """
    parent = tuple(parent)
    _check_labels(parent)
    cycles = _cycles(parent)[0]
    # the fixed points are exactly the 1-cycles
    roots = sorted(c[0] for c in cycles if len(c) == 1)
    if not roots:
        raise NoRootError("no self-parented node")
    if len(roots) > 1:
        raise MultipleRootsError(f"multiple roots: {roots}")
    # Every node must reach the root, so the root's self-loop is the only cycle.
    for cycle in cycles:
        if len(cycle) > 1:
            raise CycleDetectedError(f"cycle through node {cycle[0]}")
    return CayleyTree(n=len(parent), parent=parent, root=roots[0])


def _cycles(image: tuple[int, ...]) -> tuple[list[list[int]], list[int], list[int]]:
    """The cycles of the functional graph in walk order, each node's walk, and where walks end.

    One walk from every unseen node, O(n) in total, stamps each node it
    reaches with the walk's number.  A walk that meets its own stamp has
    found a new cycle, which is walked once from the meeting node; any
    other walk ends on the cycle of the walk it ran into.  The walk
    reads a 1-based copy of the image, and it builds no per-node basin
    list: node v's basin, the 1-based number of the cycle its walk ends
    on, is ends[stamp[v]], and only ``components`` reads it.  Each weak
    component holds exactly one cycle, so the basins are the
    components, numbered by their smallest node.
    """
    n = len(image)
    img = (0, *image)  # img[u] = f(u)
    stamp = [0] * (n + 1)  # 0 unseen, else the number of the walk that reached the node
    ends = [0]  # ends[w]: the 1-based number of the cycle walk w ends on
    cycles: list[list[int]] = []
    for s in range(1, n + 1):
        if stamp[s]:
            continue
        w = len(ends)
        u = s
        while not stamp[u]:
            stamp[u] = w
            u = img[u]
        if stamp[u] == w:
            cycle = [u]
            x = img[u]
            while x != u:
                cycle.append(x)
                x = img[x]
            cycles.append(cycle)
            ends.append(len(cycles))
        else:
            ends.append(ends[stamp[u]])
    return cycles, stamp, ends


def cyclic_nodes(m: Mapping) -> frozenset[int]:
    """Nodes j with f^k(j) = j for some k >= 1."""
    return frozenset(j for cycle in _cycles(m.image)[0] for j in cycle)


def components(m: Mapping) -> ComponentDecomposition:
    """Partition [n] into weakly connected components, ordered by smallest node."""
    cycles, stamp, ends = _cycles(m.image)
    groups: list[list[int]] = [[] for _ in cycles]
    for v in range(1, m.n + 1):
        groups[ends[stamp[v]] - 1].append(v)
    return ComponentDecomposition(components=tuple(frozenset(c) for c in groups),
                                  cyclic=frozenset(j for cycle in cycles for j in cycle))


def preimages(m: Mapping, j: int) -> frozenset[int]:
    """The set {i : f(i) = j}."""
    if not 1 <= j <= m.n:
        raise LabelOutOfRangeError(f"label {j} outside [1, {m.n}]")
    return frozenset(i for i in range(1, m.n + 1) if m.image[i - 1] == j)


def _load_labels(text: str, key: str) -> list:
    """Labels of one-line text (``2 1``) or of a JSON object's ``key`` list and optional n."""
    text = text.strip()
    if not text.startswith("{"):
        return [int(tok) for tok in text.split()]
    obj = json.loads(text)  # text opening with "{" parses to a dict or not at all
    labels = obj.get(key)
    if not isinstance(labels, list):
        raise LabelOutOfRangeError(f"JSON input needs a {key!r} list")
    n = obj.get("n", len(labels))
    if isinstance(n, bool) or n != len(labels):
        raise LabelOutOfRangeError(f"declared n={n!r} but {len(labels)} entries")
    return labels


def load_mapping(text: str) -> Mapping:
    """Parse either the JSON or the plain text mapping format."""
    return make_mapping(_load_labels(text, "image"))


def load_tree(text: str) -> CayleyTree:
    """Parse either the JSON or the plain text tree format (root self-parented)."""
    return make_tree(_load_labels(text, "parent"))
