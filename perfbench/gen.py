"""Seeded generator of gain-graph input files.

A graph has n vertices and exactly ``edges`` edges: about ``loop_share`` of
them are loops, about ``parallel_share`` repeat the endpoints of an earlier
edge with a different gain, and the rest sit on distinct vertex pairs.

Two random streams are used.  The shape stream places the edges: which
pairs, which of them get parallels, which vertices get loops.  The gain
stream draws every gain uniformly from [gain_lo, gain_hi] (loop gains are
never 0, because a gain-0 loop makes every count zero), writes each edge in
a random orientation (reversal negates the gain) and shuffles the edge
order, so the file also exercises the program's canonicalisation on load.
The program's work depends far more on the shape than on the gains, so the
benchmark keeps one shape per graph slot and varies the gains with its
seed: every seed then costs about the same.
"""

from __future__ import annotations

import random


def gain_graph(
    shape: random.Random,
    gains: random.Random,
    n: int,
    edges: int,
    gain_lo: int = -2,
    gain_hi: int = 2,
    loop_share: float = 0.1,
    parallel_share: float = 0.2,
) -> dict:
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    loops = round(loop_share * edges)
    parallel = max(round(parallel_share * edges), edges - loops - len(pairs))
    simple = edges - loops - parallel
    width = gain_hi - gain_lo + 1
    if simple < 1 or width < 2 or parallel > simple * (width - 1):
        raise ValueError("parameters leave no simple edge or too few gains for the parallels")
    placed = shape.sample(pairs, simple)
    multiplicity = {pair: 1 for pair in placed}
    for _ in range(parallel):
        pair = shape.choice([p for p in placed if multiplicity[p] < width])
        multiplicity[pair] += 1
    loop_vertices = [shape.randint(1, n) for _ in range(loops)]

    out: list[list[int]] = []
    for (i, j), count in multiplicity.items():
        # distinct gains: equal parallel edges would just collapse
        out.extend([i, j, g] for g in gains.sample(range(gain_lo, gain_hi + 1), count))
    nonzero = [g for g in range(gain_lo, gain_hi + 1) if g]
    out.extend([v, v, gains.choice(nonzero)] for v in loop_vertices)
    for e in out:
        if gains.random() < 0.5:
            e[0], e[1], e[2] = e[1], e[0], -e[2]
    gains.shuffle(out)
    return {"n": n, "edges": out}
