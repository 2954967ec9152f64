"""Benchmark sweep over a generated random corpus.

Builds a grid of random instances, runs the requested methods on every
one, and writes two CSVs under --out: the raw bench rows and the
performance profile computed from them. Defaults reproduce the random
half of the acceptance corpus (instgen.acceptance_corpus:
sizes 8/10/12, densities 0.3/0.4/0.5, K=3, seeds from 100).
"""

import argparse
import pathlib
import sys

from ddvop.harness import METHODS, bench_csv, perf_profile, profile_csv, run_bench
from ddvop.instgen import random_grid


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[8, 10, 12])
    ap.add_argument("--densities", type=float, nargs="+", default=[0.3, 0.4, 0.5])
    ap.add_argument("--clique-size", type=int, default=3, metavar="K")
    ap.add_argument("--count", type=int, default=50)
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--methods", default=",".join(METHODS))
    ap.add_argument("--time-limit", type=float, default=60.0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("bench_out"))
    args = ap.parse_args(argv)

    methods = [m for m in args.methods.split(",") if m]
    grid = [(n, d) for n in args.sizes for d in args.densities]
    instances = random_grid(grid, args.clique_size, args.count, args.seed)
    rows = run_bench(
        instances, methods, time_limit=args.time_limit, workers=args.workers
    )

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "bench.csv").write_text(bench_csv(rows))
    (args.out / "profile.csv").write_text(profile_csv(perf_profile(rows)))
    solved = sum(1 for r in rows if r.status == "OPTIMAL")
    infeasible = sum(1 for r in rows if r.status == "INFEASIBLE")
    print(
        f"{len(instances)} instances, {len(rows)} rows: "
        f"{solved} OPTIMAL, {infeasible} INFEASIBLE, "
        f"{len(rows) - solved - infeasible} other"
    )
    print(f"wrote {args.out / 'bench.csv'} and {args.out / 'profile.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
