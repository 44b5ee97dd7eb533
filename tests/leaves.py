"""Leaf-index columns of a tensor product, read off its left_of/right_of arrays."""

from crystalfold.crystal import Tensor


def leaf_columns(crys):
    """Per leaf factor, the leaf node index of every node of crys."""
    if not isinstance(crys, Tensor):
        return [list(range(len(crys)))]
    return ([[col[a] for a in crys.left_of] for col in leaf_columns(crys.left)]
            + [[col[b] for b in crys.right_of] for col in leaf_columns(crys.right)])


def leaf_node(crys, leaves):
    """The node of a left-fold tensor at a tuple of leaf node indices."""
    if len(leaves) == 1:
        return leaves[0]
    return crys.at(leaf_node(crys.left, leaves[:-1]), leaves[-1])
