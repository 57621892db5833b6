#!/usr/bin/env python3
"""Approximation quality experiment: local search vs exact search.

Runs both algorithms over seeded random temporal graphs and summarizes the
certified ratio, the true ratio (exact optimum over the certified lower
bound), community recall/precision, and the expanded fraction of the graph;
then the geometric means of both ratios, and the median share of the pending
residue in the upper bound the certificate uses (the reduce peel's bound plus
the residue), over the answers that did not fall back.
"""
import argparse
import random

import numpy as np

from tpcore import QueryContext, TemporalGraph, exact_community, local_search


def random_graph(rng, n_max, m_max, t_max):
    n = rng.randint(2, n_max)
    triples = []
    for _ in range(rng.randint(1, m_max)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            triples.append((f"v{u}", f"v{v}", rng.randint(1, t_max)))
    if not triples:
        triples = [("v0", "v1", 1)]
    return TemporalGraph.from_triples(triples)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graphs", type=int, default=200)
    ap.add_argument("--n-max", type=int, default=200)
    ap.add_argument("--m-max", type=int, default=600)
    ap.add_argument("--t-max", type=int, default=50)
    ap.add_argument("--alpha", type=float, default=0.2)
    ap.add_argument("--seed", type=int, default=606)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    certified, true_ratio, recall, precision, fraction = [], [], [], [], []
    residue_share = []
    fallbacks = 0
    for _ in range(args.graphs):
        g = random_graph(rng, args.n_max, args.m_max, args.t_max)
        ctx = QueryContext.single(rng.randrange(g.n), args.alpha)
        exact = exact_community(g, ctx)
        approx = local_search(g, ctx)
        certified.append(approx.epsilon)
        if approx.beta_lower > 0:
            true_ratio.append(exact.beta / approx.beta_lower)
        elif exact.beta == 0:
            true_ratio.append(1.0)
        overlap = len(exact.members & approx.members)
        recall.append(overlap / len(exact.members))
        precision.append(overlap / len(approx.members))
        fraction.append(len(approx.explored) / g.n)
        fallbacks += approx.fallback
        upper = approx.stats["peel_bound"] + approx.stats["residue"]
        if not approx.fallback and upper > 0:
            residue_share.append(approx.stats["residue"] / upper)

    def sketch(name, xs):
        xs = np.asarray(xs)
        print(f"{name:>12}: mean {xs.mean():.3f}  median {np.median(xs):.3f}  "
              f"p90 {np.percentile(xs, 90):.3f}  max {xs.max():.3f}")

    print(f"{args.graphs} graphs, alpha={args.alpha}, seed={args.seed}")
    sketch("certified", certified)
    sketch("true ratio", true_ratio)
    sketch("recall", recall)
    sketch("precision", precision)
    sketch("|C|/n", fraction)
    print(f"drained exact (fallback): {fallbacks}/{args.graphs}")
    print(f"geometric mean: certified {np.exp(np.log(certified).mean()):.3f}  "
          f"true ratio {np.exp(np.log(true_ratio).mean()):.3f}")
    if residue_share:
        print(f"pending residue share of the upper bound: median "
              f"{np.median(residue_share):.3f} over {len(residue_share)} answers")


if __name__ == "__main__":
    main()
