"""First steps: count unlabeled k-trees by number of hedra.

A k-tree is built from a k-clique by repeatedly gluing a new vertex onto
an existing k-clique; the (k+1)-cliques so created are its hedra, and a
k-tree with n hedra has n + k vertices.  ``count_ktrees(k, N)`` returns
the counts for n = 0..N along with the rooted aggregates behind them.
"""

from ktrees import count_ktrees, stable_counts

# Ordinary trees are the k = 1 case (here counted by edges).
trees = count_ktrees(1, 9)
print("unlabeled trees by edges:      ", trees.U)

# 2-trees: triangles glued along edges.
two = count_ktrees(2, 9)
print("unlabeled 2-trees by triangles:", two.U)

# The bundle also carries the rooted counts that prove the unrooted one:
# U = B + C - E (rooted at a hedron, at a front, at a hedron-front pair).
print("\nrooted aggregates for k=2:")
print("  B (hedron-rooted):", two.B)
print("  C (front-rooted): ", two.C)
print("  E (pair-rooted):  ", two.E)
assert all(u == b + c - e for u, b, c, e in zip(two.U, two.B, two.C, two.E))

# For fixed n the counts stop depending on k once k >= n-2.  The stable
# values form a sequence of their own.
print("\nk\\n  " + "".join(f"{n:>6}" for n in range(10)))
for k in range(1, 7):
    print(f"{k:<4} " + "".join(f"{u:>6}" for u in count_ktrees(k, 9).U))
print("stab " + "".join(f"{u:>6}" for u in stable_counts(9)))

# Counts grow fast but stay exact: arbitrary-precision integers throughout.
print("\nnumber of 2-trees with 60 triangles:")
print(" ", count_ktrees(2, 60).U[60])
