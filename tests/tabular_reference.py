"""References for the seeded landscape's scores and build_tabular's table.

reference_raw_score adds one cell's score terms block by block, reading
each weight table by its block index. The package adds the same terms
from one list of (table, digit axis, digit axis) entries, for one cell or
for many at once; agreement bit for bit checks that list's terms and
their order.

reference_table is the straightforward build: a zero table gets every
score term broadcast-added over the full array, in that term order, then
the squash, the min and max and the affine rescale each run over the
whole array. The package builds the same table from prefix sums and
per-slice passes; agreement bit for bit checks that its reordering of the
work leaves every entry's operations unchanged.
"""

import numpy as np

from evocell.arch_space import digit_radices
from evocell.evaluators import TABULAR_HIGH, TABULAR_LOW, _LandscapeWeights


def reference_raw_score(weights, digits, num_blocks):
    total = 0.0
    for b in range(num_blocks):
        d_i1, d_i2, d_o1, d_o2 = digits[4 * b : 4 * b + 4]
        total += weights.w_op[b, d_o1, d_o2]
        total += weights.w_in[b, d_i1, d_i2]
        if b + 1 < num_blocks:
            total += weights.w_pair[b, d_o1, digits[4 * (b + 1) + 2]]
    return total


def reference_table(cfg, seed):
    weights = _LandscapeWeights.draw(cfg, seed)
    radices = digit_radices(cfg)
    B = cfg.num_blocks
    raw = np.zeros(radices, dtype=np.float64)

    def along(term, axis_a, axis_b):
        shape = [1] * len(radices)
        shape[axis_a], shape[axis_b] = term.shape
        return term.reshape(shape)

    for b in range(B):
        raw += along(weights.w_op[b], 4 * b + 2, 4 * b + 3)
        raw += along(weights.w_in[b, : b + 2, : b + 2], 4 * b, 4 * b + 1)
        if b + 1 < B:
            raw += along(weights.w_pair[b], 4 * b + 2, 4 * (b + 1) + 2)
    fitness = raw.reshape(-1)
    np.negative(fitness, out=fitness)
    np.exp(fitness, out=fitness)
    fitness += 1.0
    np.divide(1.0, fitness, out=fitness)
    lo, hi = float(fitness.min()), float(fitness.max())
    if hi > lo:
        fitness -= lo
        fitness *= TABULAR_HIGH - TABULAR_LOW
        fitness /= hi - lo
        fitness += TABULAR_LOW
    else:
        fitness[:] = 0.5 * (TABULAR_LOW + TABULAR_HIGH)
    return fitness
