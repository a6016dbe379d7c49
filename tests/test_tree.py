import tracemalloc

import pytest

from treerhi import NodeId, TreeSpace
from treerhi.tree import MAX_LEAVES
from helpers import iter_nodes


def test_root_measure_is_one():
    assert TreeSpace(2, 2).node_measure(NodeId(0, 0)) == 1.0


def test_measure_halves_per_level():
    assert TreeSpace(2, 2).node_measure(NodeId(1, 0)) == 0.5


def test_measure_k4_depth3():
    assert TreeSpace(4, 3).node_measure(NodeId(3, 17)) == pytest.approx(1 / 64, rel=0)


def test_children_of_root():
    assert TreeSpace(2, 2).children(NodeId(0, 0)) == [NodeId(1, 0), NodeId(1, 1)]


def test_children_index_formula():
    assert TreeSpace(2, 2).children(NodeId(1, 1)) == [NodeId(2, 2), NodeId(2, 3)]
    assert TreeSpace(3, 2).children(NodeId(1, 2)) == [
        NodeId(2, 6),
        NodeId(2, 7),
        NodeId(2, 8),
    ]


def test_father():
    assert TreeSpace(2, 2).father(NodeId(2, 3)) == NodeId(1, 1)
    assert TreeSpace(2, 2).father(NodeId(1, 0)) == NodeId(0, 0)
    assert TreeSpace(4, 2).father(NodeId(2, 13)) == NodeId(1, 3)


def test_father_of_root_errors():
    with pytest.raises(ValueError):
        TreeSpace(2, 2).father(NodeId(0, 0))


def test_children_of_leaf_errors():
    with pytest.raises(ValueError):
        TreeSpace(2, 1).children(NodeId(1, 0))


def test_leaf_range():
    space = TreeSpace(2, 3)
    assert space.leaf_range(NodeId(0, 0)) == (0, 8)
    assert space.leaf_range(NodeId(2, 1)) == (2, 2)
    assert space.leaf_range(NodeId(3, 5)) == (5, 1)


def test_invalid_node_rejected():
    space = TreeSpace(2, 2)
    with pytest.raises(ValueError):
        space.node_measure(NodeId(3, 0))
    with pytest.raises(ValueError):
        space.node_measure(NodeId(1, 2))


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        TreeSpace(1, 2)
    with pytest.raises(ValueError):
        TreeSpace(2, -1)


@pytest.mark.parametrize("k,depth", [(2, 3), (3, 2), (4, 2)])
def test_children_partition_father(k, depth):
    space = TreeSpace(k, depth)
    for node in iter_nodes(space):
        if node.level == depth:
            continue
        kids = space.children(node)
        assert len(kids) == k
        first, count = space.leaf_range(node)
        leaves = []
        for child in kids:
            assert space.father(child) == node
            cf, cc = space.leaf_range(child)
            assert space.node_measure(child) == space.node_measure(node) / k
            leaves.extend(range(cf, cf + cc))
        assert leaves == list(range(first, first + count))


@pytest.mark.parametrize("k,depth", [(2, 4), (3, 3)])
def test_level_measures_sum_to_one(k, depth):
    space = TreeSpace(k, depth)
    for level in range(depth + 1):
        total = sum(space.node_measure(NodeId(level, i)) for i in range(k**level))
        assert total == pytest.approx(1.0, rel=1e-12)


def test_contains():
    space = TreeSpace(2, 3)
    assert space.contains(NodeId(1, 0), NodeId(3, 3))
    assert space.contains(NodeId(1, 0), NodeId(1, 0))
    assert not space.contains(NodeId(1, 0), NodeId(3, 4))
    assert not space.contains(NodeId(2, 0), NodeId(1, 0))


def test_oversized_tree_refused_before_allocating():
    assert TreeSpace(2, 24).n_leaves == MAX_LEAVES == 2**24
    tracemalloc.start()
    try:
        for k, depth in ((2, 25), (2, 10**9), (10**9, 1), (4097, 2)):
            with pytest.raises(ValueError, match="at most"):
                TreeSpace(k, depth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # 2**(10**9) alone would take 125 MB
