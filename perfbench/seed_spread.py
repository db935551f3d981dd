"""How much a workload's time metrics depend on the seed alone, with the host's drift cancelled.

    python3 perfbench/seed_spread.py --workload tensor_nd --seeds 501-510 --rounds 3

Builds the case table of every seed, then times case i of every seed back to back
(forward in one round, backward in the next) before moving on to case i + 1, so a
change of the host's speed hits all seeds alike.  Prints, over the seeds, the spread
(interquartile range over median) of the pass time and of the median and 90th
percentile call, computed as the benchmark computes them.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402

import run  # noqa: E402


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("points1d", "grid1d", "tensor_nd", "segments"))
    parser.add_argument("--seeds", default="501-510", help="first-last")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    run.import_package()
    import cases

    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    tables = [cases.BUILDERS[args.workload](seed) for seed in seeds]
    for table in tables:
        run.warm_up(table)
    calls = [[[] for _ in table] for table in tables]  # seed, case -> ms of each round
    for r in range(args.rounds):
        order = range(len(seeds)) if r % 2 == 0 else range(len(seeds) - 1, -1, -1)
        for i in range(len(tables[0])):
            for k in order:
                start = time.perf_counter()
                try:
                    tables[k][i].call()
                except Exception:  # a fault case; its time counts, as in a run
                    pass
                calls[k][i].append(1e3 * (time.perf_counter() - start))
    pass_ms = [sum(statistics.median(ms) for ms in per_case) for per_case in calls]
    pooled = [[ms for per_case in seed_calls for ms in per_case] for seed_calls in calls]
    p50 = [statistics.median(p) for p in pooled]
    p90 = [statistics.quantiles(p, n=10, method="inclusive")[-1] for p in pooled]
    print(f"{args.workload}, seeds {args.seeds}, {args.rounds} rounds: spread over seeds of "
          f"pass time {spread(pass_ms):.3f}, op_ms_p50 {spread(p50):.3f}, op_ms_p90 {spread(p90):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
