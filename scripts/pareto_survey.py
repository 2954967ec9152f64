"""Frontier survey: how often do the two objectives share an optimum?

Sweeps generated instances, computes the full objective image of every
feasible one, and tabulates Pareto-frontier sizes. A frontier of size 1
means a single order minimizes node count and double count at once;
any instance with a larger frontier is a counterexample worth keeping.
Writes one CSV row per instance and prints a summary.
"""

import argparse
import csv
import io
import pathlib
import sys

from ddvop.instgen import GenerationError, gen_random, gen_synthetic
from ddvop.oracle import simultaneous_optimum_probe

HEADER = (
    "instance",
    "n",
    "K",
    "feasible",
    "min_nodes",
    "min_double",
    "pareto_size",
    "simultaneous",
)


def build_corpus(count, seed):
    instances = []
    while len(instances) < count:
        n = 6 + (seed % 7)
        K = 1 + (seed % 3)
        if seed % 2:
            try:
                instances.append(gen_random(n, 0.3 + 0.05 * (seed % 5), K, seed))
            except GenerationError:
                pass
        else:
            nd = 1 + (seed % (n - K - 1))
            try:
                instances.append(gen_synthetic(K, nd, 0.05 * (seed % 3), n, seed))
            except GenerationError:
                pass
        seed += 1
    return instances


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("pareto.csv"))
    args = ap.parse_args(argv)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(HEADER)
    feasible = wider = 0
    for inst in build_corpus(args.count, args.seed):
        probe = simultaneous_optimum_probe(inst)
        if not probe["feasible"]:
            writer.writerow([inst.name, inst.n, inst.K, 0, "", "", "", ""])
            continue
        feasible += 1
        size = len(probe["pareto"])
        if size > 1:
            wider += 1
            print(f"frontier of size {size}: {inst.name} -> {probe['pareto']}")
        writer.writerow(
            [
                inst.name,
                inst.n,
                inst.K,
                1,
                probe["min_nodes"],
                probe["min_double"],
                size,
                int(probe["simultaneous"]),
            ]
        )
    args.out.write_text(buf.getvalue())
    print(
        f"{args.count} instances, {feasible} feasible, "
        f"{feasible - wider} with a single-point frontier"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
