from hypothesis import given
from hypothesis import strategies as st

from cayley_runs import (
    count_ascents,
    make_mapping,
    make_tree,
    preimages,
    run_starts_mapping,
    run_starts_tree,
)
from cayley_runs.runs import _smaller_preimage

from conftest import FIG_ASCENTS, FIG_MAPPING, FIG_RUN_COUNT, FIG_RUN_STARTS, FIG_TREE_PARENT

mappings = st.integers(1, 25).flatmap(
    lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n)
).map(make_mapping)


@st.composite
def labelled_trees(draw, max_n=25):
    # attach node k+1 to a uniform earlier node, then relabel by a permutation
    n = draw(st.integers(1, max_n))
    perm = draw(st.permutations(list(range(1, n + 1))))
    parent = [0] * n
    parent[perm[0] - 1] = perm[0]
    for k in range(1, n):
        parent[perm[k] - 1] = perm[draw(st.integers(0, k - 1))]
    return make_tree(parent)


def test_figure_mapping_runs():
    profile = run_starts_mapping(make_mapping(FIG_MAPPING))
    assert profile.count == FIG_RUN_COUNT
    assert profile.starts == FIG_RUN_STARTS


def test_figure_tree_runs():
    profile = run_starts_tree(make_tree(FIG_TREE_PARENT))
    assert profile.count == FIG_RUN_COUNT
    assert profile.starts == FIG_RUN_STARTS


def test_identity_all_starts():
    for n in (1, 2, 5, 9):
        profile = run_starts_mapping(make_mapping(range(1, n + 1)))
        assert profile.count == n
        assert profile.starts == frozenset(range(1, n + 1))


def test_chain_single_run():
    for n in (2, 3, 7):
        image = [i + 1 for i in range(1, n)] + [n]
        profile = run_starts_mapping(make_mapping(image))
        assert profile.starts == {1}
        assert profile.count == 1


def test_single_node_tree():
    assert run_starts_tree(make_tree([1])).count == 1


def test_increasing_path_tree():
    # parent[v] = v - 1: every node's children are all larger
    profile = run_starts_tree(make_tree([1, 1, 2]))
    assert profile.starts == {1, 2, 3}
    assert profile.count == 3


def test_ascents():
    assert count_ascents(make_mapping(FIG_MAPPING)) == FIG_ASCENTS
    assert count_ascents(make_mapping([1, 2, 3])) == 0
    assert count_ascents(make_mapping([2, 3, 4, 4])) == 3


def test_ascents_and_runs_not_complementary():
    m = make_mapping(FIG_MAPPING)
    assert count_ascents(m) == 10
    assert m.n - count_ascents(m) == 9  # non-ascending nodes
    assert run_starts_mapping(m).count == 13  # not 10 + 1


@given(mappings)
def test_start_predicate_matches_preimages(m):
    profile = run_starts_mapping(m)
    for j in range(1, m.n + 1):
        no_smaller = all(i >= j for i in preimages(m, j))
        assert (j in profile.starts) == no_smaller
    assert 1 <= profile.count <= m.n


@given(mappings)
def test_smaller_preimage_table_matches_preimages(m):
    down = _smaller_preimage(m.image)
    assert len(down) == m.n + 1
    for j in range(1, m.n + 1):
        assert down[j] == max((i for i in preimages(m, j) if i < j), default=0)


@given(mappings)
def test_terminal_nodes_always_start(m):
    profile = run_starts_mapping(m)
    for j in range(1, m.n + 1):
        if not preimages(m, j):
            assert j in profile.starts


@given(labelled_trees())
def test_tree_profile_equals_self_loop_mapping_profile(t):
    assert run_starts_tree(t) == run_starts_mapping(make_mapping(t.parent))
