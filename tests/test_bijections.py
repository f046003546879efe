import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_runs import (
    InvalidLinkSequenceError,
    LabelOutOfRangeError,
    MarkedTree,
    OrderedSetPartition,
    SizeTooLargeError,
    count_valid_pairs,
    decode_partition,
    encode_partition,
    forbidden_links,
    make_mapping,
    make_partition,
    make_tree,
    mapping_runs,
    mapping_to_tree,
    right_to_left_maxima,
    root_path,
    run_starts_mapping,
    run_starts_tree,
    sample_mapping,
    tree_to_mapping,
)
from cayley_runs import core

from conftest import (
    FIG_MAPPING,
    FIG_MARK,
    FIG_PARTITION_BLOCKS,
    FIG_PARTITION_LINKS,
    FIG_TREE_PARENT,
)

mappings = st.integers(1, 40).flatmap(
    lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n)
).map(make_mapping)


def all_trees(n):
    for parent in itertools.product(range(1, n + 1), repeat=n):
        try:
            yield make_tree(parent)
        except ValueError:
            continue


def all_mappings(n):
    for image in itertools.product(range(1, n + 1), repeat=n):
        yield make_mapping(image)


def test_right_to_left_maxima():
    assert right_to_left_maxima([1, 7, 11, 17, 4, 14, 10]) == (3, 5, 6)
    assert right_to_left_maxima([5]) == (0,)
    assert right_to_left_maxima([1, 2, 3]) == (2,)
    assert right_to_left_maxima([3, 2, 1]) == (0, 1, 2)


def test_root_path_figure():
    rp = root_path(make_tree(FIG_TREE_PARENT), FIG_MARK)
    assert rp.nodes == (1, 7, 11, 17, 4, 14, 10)
    assert tuple(rp.nodes[i] for i in rp.maxima_indices) == (17, 14, 10)
    assert rp.maxima_indices[-1] == len(rp.nodes) - 1  # root is always one


def test_phi_trivial_and_hand_traced():
    single = MarkedTree(make_tree([1]), 1)
    assert tree_to_mapping(single).image == (1,)
    two = MarkedTree(make_tree([2, 2]), 1)
    assert tree_to_mapping(two).image == (2, 1)


def test_phi_figure_edge_rewiring():
    image = tree_to_mapping(MarkedTree(make_tree(FIG_TREE_PARENT), FIG_MARK)).image
    assert image == FIG_MAPPING
    # the path maxima now map to 1, 4 and 10; only the edges out of 17
    # and 14 actually moved (the root already pointed to itself)
    assert image[17 - 1] == 1 and image[14 - 1] == 4 and image[10 - 1] == 10
    changed = {v for v in range(1, 20) if image[v - 1] != FIG_TREE_PARENT[v - 1]}
    assert changed == {17, 14}


def test_phi_inverse_figure():
    mt = mapping_to_tree(make_mapping(FIG_MAPPING))
    assert mt.tree.parent == FIG_TREE_PARENT
    assert mt.tree.root == 10
    assert mt.mark == FIG_MARK


def test_phi_inverse_hand_traced():
    assert mapping_to_tree(make_mapping([1])) == MarkedTree(make_tree([1]), 1)
    mt = mapping_to_tree(make_mapping([2, 1]))
    assert mt.tree.parent == (2, 2) and mt.mark == 1


def test_tree_to_mapping_validates_nothing_again(monkeypatch):
    # the image is built from a valid tree and a checked mark, so no label check may run
    expected = [make_mapping(FIG_MAPPING), *(sample_mapping(1000, seed) for seed in range(5))]
    trees = [MarkedTree(make_tree(FIG_TREE_PARENT), FIG_MARK),
             *(mapping_to_tree(m) for m in expected[1:])]

    def unusable(*args):
        raise AssertionError("tree_to_mapping validated its image again")

    monkeypatch.setattr(core, "_check_labels", unusable)
    assert [tree_to_mapping(mt) for mt in trees] == expected


def test_mark_validation():
    with pytest.raises(ValueError):
        MarkedTree(make_tree([1]), 2)


@pytest.mark.parametrize("n", range(1, 6))
def test_round_trips_exhaustive(n):
    for m in all_mappings(n):
        assert tree_to_mapping(mapping_to_tree(m)) == m
    for t in all_trees(n):
        for w in range(1, n + 1):
            mt = MarkedTree(t, w)
            assert mapping_to_tree(tree_to_mapping(mt)) == mt


@given(mappings)
def test_round_trip_random(m):
    mt = mapping_to_tree(m)
    assert tree_to_mapping(mt) == m


@given(mappings)
def test_phi_cardinality_structure(m):
    # path nodes of the preimage tree are exactly the cyclic nodes of m
    from cayley_runs import cyclic_nodes

    mt = mapping_to_tree(m)
    rp = root_path(mt.tree, mt.mark)
    assert frozenset(rp.nodes) == cyclic_nodes(m)


@pytest.mark.parametrize("n", range(1, 6))
def test_ascent_and_small_preimage_preservation(n):
    for t in all_trees(n):
        children_smaller = {
            v: any(x < v for x in range(1, n + 1)
                   if t.parent_of(x) == v and x != v)
            for v in range(1, n + 1)
        }
        for w in range(1, n + 1):
            f = tree_to_mapping(MarkedTree(t, w))
            for v in range(1, n + 1):
                assert (t.parent_of(v) > v) == (f.apply(v) > v)
                has_smaller_pre = any(
                    f.apply(x) == v and x < v for x in range(1, n + 1))
                assert children_smaller[v] == has_smaller_pre


@pytest.mark.parametrize("n", range(1, 6))
def test_run_preservation(n):
    for t in all_trees(n):
        tree_profile = run_starts_tree(t)
        for w in range(1, n + 1):
            assert run_starts_mapping(tree_to_mapping(MarkedTree(t, w))) == tree_profile


def test_encode_figure_table_verbatim():
    partition, links = encode_partition(make_mapping(FIG_MAPPING))
    assert partition.blocks == FIG_PARTITION_BLOCKS
    assert links == FIG_PARTITION_LINKS


def test_encode_hand_traced():
    partition, links = encode_partition(make_mapping([1, 2]))
    assert partition.blocks == (frozenset({2}), frozenset({1}))
    assert links == (2, 1)
    partition, links = encode_partition(make_mapping([2, 2]))
    assert partition.blocks == (frozenset({1, 2}),)
    assert links == (2,)


def test_decode_hand_traced():
    p = make_partition([{2}, {1}])
    assert decode_partition(p, (2, 1)).image == (1, 2)
    assert decode_partition(make_partition([{1}]), (1,)).image == (1,)
    fig = decode_partition(make_partition(FIG_PARTITION_BLOCKS), FIG_PARTITION_LINKS)
    assert fig.image == FIG_MAPPING


def test_decode_rejects_forbidden_link():
    p = make_partition([{2}, {1}])
    # block {1} must not link to 2 = min element of block {2} above 1
    with pytest.raises(InvalidLinkSequenceError):
        decode_partition(p, (2, 2))


def test_decode_rejects_malformed_sequences():
    p = make_partition([{2}, {1}])
    with pytest.raises(InvalidLinkSequenceError):
        decode_partition(p, (2,))
    with pytest.raises(InvalidLinkSequenceError):
        decode_partition(p, (2, 3))


@pytest.mark.parametrize("blocks, links", [
    ((frozenset({3}),), (1,)),  # label above n
    ((frozenset({0, 1}),), (1,)),  # label 0
    ((frozenset({"a"}),), (1,)),  # not comparable with an int
    ((frozenset({1.0}),), (1,)),  # in range, but not an int
    ((frozenset({1, 2}), frozenset({2})), (1, 1)),  # 2 in two blocks, so 3 in none
    ((frozenset({1}), frozenset()), (1, 1)),  # an empty block
    ((frozenset({True}),), (1,)),  # bool is an int subclass
    ((frozenset({1}), frozenset({-1})), (1, 1)),  # -1 must not stand in for the missing 2
    ((frozenset({3}), frozenset({0, 1})), (1, 1)),  # label 0 next to valid ones
])
def test_decode_rejects_labels_outside_range(blocks, links):
    # a partition built directly, without the checks in make_partition
    with pytest.raises(LabelOutOfRangeError):
        decode_partition(OrderedSetPartition(blocks), links)


def test_make_partition_validation():
    with pytest.raises(ValueError):
        make_partition([{1}, {2}])  # increasing maxima
    with pytest.raises(ValueError):
        make_partition([{3}, {1}])  # not covering [n]
    with pytest.raises(ValueError):
        make_partition([{2, 1}, set()])


def _encode_by_unused_preimages(m):
    """The paper's descent, transcribed: always the largest *unused* smaller preimage."""
    used = set()
    blocks, links = [], []
    for top in range(m.n, 0, -1):
        if top in used:
            continue
        block, cur = [], top
        while cur:
            block.append(cur)
            used.add(cur)
            cands = [i for i in range(1, cur) if m.apply(i) == cur and i not in used]
            cur = max(cands, default=0)
        blocks.append(frozenset(block))
        links.append(m.apply(top))
    return OrderedSetPartition(tuple(blocks)), tuple(links)


@pytest.mark.parametrize("n", range(1, 7))
def test_descent_never_meets_a_used_preimage(n):
    # the lemma in encode_partition's docstring, exhaustively
    for m in all_mappings(n):
        assert encode_partition(m) == _encode_by_unused_preimages(m)


@pytest.mark.parametrize("n", range(1, 6))
def test_partition_round_trip_exhaustive(n):
    for m in all_mappings(n):
        partition, links = encode_partition(m)
        assert decode_partition(partition, links) == m
        assert len(partition.blocks) == run_starts_mapping(m).count


@given(mappings)
def test_partition_blocks_are_ascending_runs(m):
    partition, links = encode_partition(m)
    starts = run_starts_mapping(m).starts
    for block in partition.blocks:
        run = sorted(block)
        assert run[0] in starts
        for a, b in zip(run, run[1:]):
            assert m.apply(a) == b
    assert decode_partition(partition, links) == m


def _valid_links_brute(partition, n):
    bad = forbidden_links(partition)
    for links in itertools.product(range(1, n + 1), repeat=len(partition.blocks)):
        if all(nj not in b for nj, b in zip(links, bad)):
            yield links


@pytest.mark.parametrize("n", range(1, 5))
def test_encode_decode_cover_all_valid_pairs(n):
    from cayley_runs.bijections import _set_partitions

    total = 0
    for m in range(1, n + 1):
        for raw in _set_partitions(n, m):
            partition = make_partition(
                sorted((frozenset(b) for b in raw), key=max, reverse=True))
            for links in _valid_links_brute(partition, n):
                back = decode_partition(partition, links)
                assert encode_partition(back) == (partition, links)
                total += 1
    assert total == n ** n  # the pairs biject onto all mappings


@pytest.mark.parametrize("n", range(1, 6))
def test_decode_rejects_exactly_the_forbidden_links(n):
    # decode validates by re-encoding; the explicit forbidden sets are the oracle
    from cayley_runs.bijections import _set_partitions

    for m in range(1, n + 1):
        for raw in _set_partitions(n, m):
            partition = make_partition(
                sorted((frozenset(b) for b in raw), key=max, reverse=True))
            bad = forbidden_links(partition)
            for links in itertools.product(range(1, n + 1), repeat=m):
                forbidden = any(nj in b for nj, b in zip(links, bad))
                try:
                    decode_partition(partition, links)
                    rejected = False
                except InvalidLinkSequenceError:
                    rejected = True
                assert rejected == forbidden, (partition, links)


def _decode_by_re_encoding(partition, links):
    """decode_partition as it validated before: build the mapping, then re-encode it."""
    image = [0] * partition.n
    for block, nj in zip(partition.blocks, links):
        run = sorted(block)
        for a, b in zip(run, run[1:]):
            image[a - 1] = b
        image[run[-1] - 1] = nj
    m = make_mapping(image)
    if encode_partition(m) != (partition, tuple(links)):
        raise InvalidLinkSequenceError(
            "a link is forbidden by an earlier block: the pair does not re-encode to itself")
    return m


def _outcome(decode, partition, links):
    try:
        return decode(partition, links)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", range(1, 6))
def test_decode_check_matches_re_encoding(n):
    # the lemma in decode_partition's docstring: every block order, every link sequence
    from cayley_runs.bijections import _set_partitions

    pairs = 0
    for m in range(1, n + 1):
        for raw in _set_partitions(n, m):
            for order in itertools.permutations(frozenset(b) for b in raw):
                partition = OrderedSetPartition(tuple(order))
                for links in itertools.product(range(1, n + 1), repeat=m):
                    assert (_outcome(decode_partition, partition, links)
                            == _outcome(_decode_by_re_encoding, partition, links))
                    pairs += 1
    assert pairs == [1, 10, 219, 8_676, 544_505][n - 1]


def test_decode_check_matches_re_encoding_at_n_1000():
    # the same lemma on large seeded mappings, one block's link moved up by one at a time
    rng = np.random.default_rng(15)
    n = 1000
    outcomes = set()
    for images in rng.integers(1, n + 1, size=(3, n)):
        m = make_mapping(images.tolist())
        partition, links = encode_partition(m)
        assert decode_partition(partition, links) == m
        for j in rng.choice(len(links), size=min(40, len(links)), replace=False):
            moved = links[:j] + (links[j] % n + 1,) + links[j + 1:]
            got = _outcome(decode_partition, partition, moved)
            assert got == _outcome(_decode_by_re_encoding, partition, moved)
            outcomes.add(type(got))
    assert outcomes == {type(m), tuple}  # some moved links are accepted, some rejected


@pytest.mark.parametrize("n,m,expected", [(1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 2, 18)])
def test_count_valid_pairs_examples(n, m, expected):
    assert count_valid_pairs(n, m) == expected


@pytest.mark.parametrize("n", range(1, 6))
def test_count_valid_pairs_matches_mapping_counts(n):
    for m in range(1, n + 1):
        assert count_valid_pairs(n, m) == mapping_runs(n, m)


def test_count_valid_pairs_matches_sequence_enumeration():
    from cayley_runs.bijections import _set_partitions

    for n in range(1, 5):
        for m in range(1, n + 1):
            brute = 0
            for raw in _set_partitions(n, m):
                partition = make_partition(
                    sorted((frozenset(b) for b in raw), key=max, reverse=True))
                brute += sum(1 for _ in _valid_links_brute(partition, n))
            assert count_valid_pairs(n, m) == brute


def test_count_valid_pairs_bounds():
    with pytest.raises(SizeTooLargeError):
        count_valid_pairs(8, 3)
    with pytest.raises(ValueError):
        count_valid_pairs(3, 4)
    assert count_valid_pairs(8, 3, max_size=8) == mapping_runs(8, 3)
