"""Ascending-run and ascent statistics for trees and mappings.

A node j starts an ascending run exactly when it has no preimage (child)
with a smaller label, so the number of runs equals the number of such
nodes.  Trees and mappings share one predicate: with the root stored as
self-parented, the root's fictitious self-edge never counts as a smaller
preimage, so a parent array can be scanned like an image array.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CayleyTree, Mapping


@dataclass(frozen=True)
class RunProfile:
    starts: frozenset[int]
    count: int


def _smaller_preimage(image) -> list[int]:
    """down[j] is the largest i < j with f(i) = j (the last one seen), or 0 when j starts a run."""
    down = [0] * (len(image) + 1)
    for i, j in enumerate(image, start=1):
        if i < j:
            down[j] = i
    return down


def _run_starts(image: tuple[int, ...]) -> RunProfile:
    down = _smaller_preimage(image)
    starts = frozenset(j for j in range(1, len(image) + 1) if not down[j])
    return RunProfile(starts=starts, count=len(starts))


def run_starts_mapping(m: Mapping) -> RunProfile:
    """Nodes whose preimages all carry labels >= their own, and their count."""
    return _run_starts(m.image)


def run_starts_tree(t: CayleyTree) -> RunProfile:
    """Nodes all of whose children carry larger labels, and their count."""
    return _run_starts(t.parent)


def count_ascents(m: Mapping) -> int:
    """Number of nodes i with f(i) > i."""
    return sum(1 for i, j in enumerate(m.image, start=1) if j > i)
