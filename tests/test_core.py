import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cayley_runs import (
    CycleDetectedError,
    LabelOutOfRangeError,
    MultipleRootsError,
    NoRootError,
    components,
    cyclic_nodes,
    load_mapping,
    load_tree,
    make_mapping,
    make_tree,
    preimages,
)
from cayley_runs.bijections import mapping_to_tree
from cayley_runs.core import _cycles

from conftest import FIG_COMPONENTS, FIG_CYCLIC, FIG_MAPPING, FIG_TREE_PARENT, FIG_TREE_ROOT

mappings = st.integers(1, 30).flatmap(
    lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n)
).map(make_mapping)


def test_make_tree_examples():
    assert make_tree([1]).root == 1
    t = make_tree([2, 2])
    assert t.root == 2 and t.parent_of(1) == 2
    assert make_tree(FIG_TREE_PARENT).root == FIG_TREE_ROOT


def test_make_tree_errors():
    with pytest.raises(NoRootError):
        make_tree([2, 1])
    with pytest.raises(MultipleRootsError):
        make_tree([1, 2])
    with pytest.raises(CycleDetectedError):
        make_tree([1, 3, 2])
    with pytest.raises(LabelOutOfRangeError):
        make_tree([0])
    with pytest.raises(LabelOutOfRangeError):
        make_tree([])
    with pytest.raises(LabelOutOfRangeError):
        make_tree([1, 5])


def _tree_error_by_roots_scan(parent):
    """(error type, message) of an invalid parent array, or None, from a plain roots scan."""
    n = len(parent)
    roots = [v for v in range(1, n + 1) if parent[v - 1] == v]
    if not roots:
        return NoRootError, "no self-parented node"
    if len(roots) > 1:
        return MultipleRootsError, f"multiple roots: {roots}"
    for s in range(1, n + 1):
        # walk until a node repeats: the first repeat is where the walk enters its cycle
        seen, u = set(), s
        while u not in seen:
            seen.add(u)
            u = parent[u - 1]
        if u != roots[0]:
            return CycleDetectedError, f"cycle through node {u}"
    return None


@pytest.mark.parametrize("n", range(1, 6))
def test_make_tree_errors_match_a_roots_scan(n):
    for parent in itertools.product(range(1, n + 1), repeat=n):
        expected = _tree_error_by_roots_scan(parent)
        if expected is None:
            assert make_tree(parent).parent == parent
            continue
        with pytest.raises(expected[0]) as info:
            make_tree(parent)
        assert type(info.value) is expected[0] and str(info.value) == expected[1]


def test_make_mapping_examples():
    assert make_mapping([1]).apply(1) == 1
    assert make_mapping([2, 1]).image == (2, 1)
    assert make_mapping(FIG_MAPPING).n == 19
    with pytest.raises(LabelOutOfRangeError):
        make_mapping([3, 1])


def test_cyclic_nodes():
    assert cyclic_nodes(make_mapping([1, 2, 3])) == {1, 2, 3}
    assert cyclic_nodes(make_mapping([2, 2])) == {2}
    assert cyclic_nodes(make_mapping(FIG_MAPPING)) == FIG_CYCLIC


def _cycles_by_orbits(image):
    """``_cycles`` from each node's orbit alone: cycles in order of first reach, and the basins.

    The first node to repeat on the orbit of s is where the orbit enters
    its cycle; the first s to reach a cycle fixes its number and the
    node it is listed from.
    """
    cycles, number, basin = [], {}, [0]
    for s in range(1, len(image) + 1):
        seen, u = set(), s
        while u not in seen:
            seen.add(u)
            u = image[u - 1]
        cycle = [u]
        while image[cycle[-1] - 1] != u:
            cycle.append(image[cycle[-1] - 1])
        key = frozenset(cycle)
        if key not in number:
            number[key] = len(cycles) + 1
            cycles.append(cycle)
        basin.append(number[key])
    return cycles, basin


def _cycles_and_basins(image):
    """``_cycles``'s cycles, and each node's basin read as ends[stamp[v]]."""
    cycles, stamp, ends = _cycles(image)
    return cycles, [ends[w] for w in stamp]


# make_tree walks parent arrays: a mapping's tree under the bijection is one
images = mappings.flatmap(lambda m: st.sampled_from(
    [m.image, mapping_to_tree(m).tree.parent]))


@given(images)
def test_cycles_match_the_orbit_reference(image):
    assert _cycles_and_basins(image) == _cycles_by_orbits(image)


@pytest.mark.parametrize("image, expected", [
    ((1,), ([[1]], [0, 1])),
    ((1, 2, 3, 4), ([[1], [2], [3], [4]], [0, 1, 2, 3, 4])),
    ((2, 3, 4, 5, 1), ([[1, 2, 3, 4, 5]], [0, 1, 1, 1, 1, 1])),
    ((5, 1, 2, 3, 4), ([[1, 5, 4, 3, 2]], [0, 1, 1, 1, 1, 1])),
], ids=["n=1", "fixed-points", "n-cycle", "n-cycle-down"])
def test_cycles_edge_cases(image, expected):
    assert _cycles_and_basins(image) == _cycles_by_orbits(image) == expected


def test_components_figure():
    decomp = components(make_mapping(FIG_MAPPING))
    assert decomp.components == FIG_COMPONENTS
    assert decomp.cyclic == FIG_CYCLIC


def test_components_trivial():
    n = 5
    decomp = components(make_mapping(list(range(1, n + 1))))
    assert decomp.components == tuple(frozenset({v}) for v in range(1, n + 1))
    assert components(make_mapping([2, 1])).components == (frozenset({1, 2}),)


def test_preimages():
    fig = make_mapping(FIG_MAPPING)
    assert preimages(fig, 7) == {1, 6, 12, 15}
    assert preimages(fig, 19) == frozenset()
    assert preimages(make_mapping([1, 2]), 1) == {1}
    with pytest.raises(LabelOutOfRangeError):
        preimages(fig, 20)


@given(mappings)
def test_components_partition_and_cyclic_union(m):
    decomp = components(m)
    seen = sorted(v for c in decomp.components for v in c)
    assert seen == list(range(1, m.n + 1))
    assert frozenset().union(*decomp.components) >= decomp.cyclic
    for c in decomp.components:
        # closed under f, so no edge leaves the component
        assert all(m.apply(v) in c for v in c)
        # its cyclic nodes form exactly one cycle
        on_cycle = c & decomp.cyclic
        start = min(on_cycle)
        orbit, u = [start], m.apply(start)
        while u != start:
            orbit.append(u)
            u = m.apply(u)
        assert len(orbit) == len(on_cycle) and set(orbit) == on_cycle


@given(mappings)
def test_cyclic_node_definition(m):
    cyc = cyclic_nodes(m)
    for j in range(1, m.n + 1):
        u, on_cycle = j, False
        for _ in range(m.n):
            u = m.apply(u)
            if u == j:
                on_cycle = True
                break
        assert (j in cyc) == on_cycle


def test_tree_reaches_root_within_n_steps():
    for n in range(1, 6):
        for parent in itertools.product(range(1, n + 1), repeat=n):
            try:
                t = make_tree(parent)
            except ValueError:
                continue
            for v in range(1, n + 1):
                u, steps = v, 0
                while u != t.root:
                    u = t.parent_of(u)
                    steps += 1
                assert steps < n


def test_exhaustive_object_counts():
    for n in range(1, 6):
        arrays = itertools.product(range(1, n + 1), repeat=n)
        trees = 0
        for parent in arrays:
            try:
                make_tree(parent)
                trees += 1
            except ValueError:
                pass
        assert trees == n ** (n - 1)
        assert sum(1 for _ in itertools.product(range(1, n + 1), repeat=n)) == n ** n


def test_text_and_json_round_trips():
    m = make_mapping(FIG_MAPPING)
    t = make_tree(FIG_TREE_PARENT)
    assert load_mapping(m.to_text()) == m
    assert load_tree(t.to_text()) == t
    assert load_mapping(m.to_json()) == m
    assert load_tree(t.to_json()) == t
    assert load_mapping("2 1").image == (2, 1)
    assert json.loads(m.to_json())["n"] == 19


def test_json_declared_size_mismatch():
    with pytest.raises(LabelOutOfRangeError):
        load_mapping('{"n": 3, "image": [2, 1]}')
    with pytest.raises(LabelOutOfRangeError):
        load_tree('{"n": 1, "parent": [2, 2]}')
