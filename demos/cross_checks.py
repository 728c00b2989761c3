"""Three independent routes to the same numbers.

1. The general engine: solves the per-cycle-type system for any k.
2. Closed forms for k = 1..4: each solves its own hand-written per-type
   system, reading nothing from the engine, then combines the series into
   U (the classical formulas for k = 1 and 2, reduced combinations for
   k = 3 and 4).
3. Brute force: explicitly build every coding tree at small sizes and
   count color-orbits by sweeping all (k+1)! recolorings.
"""

from itertools import permutations
from math import factorial

from ktrees import (
    count_ktrees,
    enumerate_coding_trees,
    fixed_count,
    fourtree_U,
    orbit_count,
    otter_U,
    threetree_U,
    twotree_U,
)

# Engine vs closed forms, exact through order 20.
for fn, k in ((otter_U, 1), (twotree_U, 2), (threetree_U, 3), (fourtree_U, 4)):
    closed = fn(20)
    engine = count_ktrees(k, 20).U
    print(f"k={k}: closed form == engine through N=20: {closed == engine}")

# Engine vs brute force.  A coding tree encodes a k-tree: one black vertex
# per hedron, one colored vertex per front; unlabeled k-trees correspond
# to color-orbits of these trees.
print("\nk=2: explicit coding trees with n hedra, and their color-orbits")
engine_u = count_ktrees(2, 5).U
for n in range(6):
    classes = len(enumerate_coding_trees(2, n))
    orbits = orbit_count(2, n)
    print(f"  n={n}: {classes:4d} colored classes -> {orbits:3d} orbits"
          f"   (engine says {engine_u[n]})")
    assert orbits == engine_u[n]

# Burnside's lemma ties the two numbers together: the orbit count is the
# average number of classes fixed by a recoloring.
n = 4
fixed = [fixed_count(2, n, pi) for pi in permutations((1, 2, 3))]
print(f"\nfixed counts under all recolorings at n={n}: {fixed}")
print(f"average = {sum(fixed)}/{factorial(3)} = {sum(fixed) // factorial(3)}"
      f" = orbit count {orbit_count(2, n)}")
