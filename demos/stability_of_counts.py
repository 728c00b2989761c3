"""Why the columns of the count table freeze as k grows.

Once k >= n-1, every k-tree with n hedra has a vertex adjacent to all
others, and deleting it leaves a (k-1)-tree with n hedra; that is a
bijection, so the count K(n, k) is constant for k >= n-2.  The jump just
before the freeze is itself a recognizable number: the count of ordinary
trees one size down.
"""

from ktrees import count_ktrees, stable_counts

MAX_N = 10
table = {k: count_ktrees(k, MAX_N).U for k in range(1, MAX_N + 1)}

# Watch a single column stabilize.
n = 8
print(f"counts of k-trees with n={n} hedra as k grows:")
for k in range(1, MAX_N):
    marker = "  <- stable from here (k >= n-2)" if k == n - 2 else ""
    print(f"  k={k:<2} {table[k][n]}{marker}")

stable = stable_counts(MAX_N)
print("\nstable values:", stable)

# The final jump K(n, n-2) -> K(n, n-3) equals the number of unlabeled
# trees with n-1 edges: the missing structures collapse onto plain trees.
# Why: an (n-2)-tree with no vertex adjacent to all others is its n hedra
# glued along a tree.  With the second and third jumps, one and two k lower
# (one color used twice, then two repeats in all), stable_counts solves only
# k = N-5 and reads the jumps off the rooted trees.
print("\nlast jump vs tree counts:")
trees = table[1]
for n in range(4, MAX_N + 1):
    jump = table[n - 2][n] - table[n - 3][n]
    print(f"  n={n:<3} jump = {jump:<6} trees with {n-1} edges = {trees[n - 1]}")
    assert jump == trees[n - 1]
