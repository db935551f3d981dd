"""Benchmark of the xideform package: one workload per run, whole passes, checked outputs.

    python3 perfbench/run.py --workload points1d --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke        # one checked pass of every workload

A run builds the workload's seeded case table, then calls its cases one after the
other (a closed loop with one caller) in whole passes until --seconds have been
measured.  Only the calls into the package are timed.  The outputs of the first
pass are checked afterwards against the mpmath oracle or an identity, and every
later pass must reproduce them exactly.  The last line of standard output is one
JSON object: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1 (see README.md).
"""

import os
import sys
import time

SETUP_START = time.perf_counter()

# one BLAS thread: OpenBLAS's default threads make xi_d bimodal on small machines
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
DEFAULT_SEED = 1
SETUP_SAMPLES = 3
MIN_PASSES = 10  # each operation's upper quartile is taken over at least this many calls


def import_package():
    """Import xideform from this checkout's src/ only; exit with an error when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import xideform
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import xideform from {SRC}: {exc}")
    if not Path(xideform.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: xideform was imported from {xideform.__file__}, not from {SRC}")
    warnings.simplefilter("ignore", xideform.PrecisionWarning)


def warm_up(cases):
    """First call of each operation kind: lazy set-up and caches fill before timing."""
    seen = set()
    for case in cases:
        if case.kind not in seen:
            seen.add(case.kind)
            try:
                case.call()
            except Exception:  # a failing kind fails again, and is counted, when measured
                pass


def upper_quartile(values) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[-1]


def same_output(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    try:
        return bool(a == b)
    except ValueError:  # numpy arrays inside the output
        return repr(a) == repr(b)


def measure(table, seconds, tracer=None, min_passes=1):
    """Whole passes over the case table until `seconds` of wall time and `min_passes`
    passes have passed."""
    perf = time.perf_counter
    first, pass_ms, op_ms, layer_passes = None, [], [], []
    deterministic = True
    end = perf() + seconds
    while True:
        if tracer is not None:
            tracer.reset()
        outputs, total = [], 0.0
        for case in table:
            start = perf()
            try:
                out = case.call()
            except Exception as exc:  # a failed operation; recorded and counted
                out = exc
            elapsed = perf() - start
            total += elapsed
            op_ms.append(1e3 * elapsed)
            outputs.append(out)
        pass_ms.append(1e3 * total)
        if tracer is not None:
            layer_passes.append(tracer.snapshot())
        if first is None:
            first = outputs
        else:
            deterministic &= all(same_output(a, b) for a, b in zip(first, outputs))
        if perf() >= end and len(pass_ms) >= min_passes:
            return first, pass_ms, op_ms, layer_passes, deterministic


def check(table, outputs, oracle):
    """(failed per pass, correct, digits_min, problems) from the first pass's outputs.

    digits_min is the lowest, over operation kinds, of the median correct digits of
    the kind's passing outputs that have a reference value: the typical accuracy of
    the least accurate kind.
    """
    failed, correct, by_kind, problems = 0, True, {}, []
    for case, out in zip(table, outputs):
        if isinstance(out, Exception):
            ok, dig = False, None
            why = f"{type(out).__name__}: {out}"
        else:
            ok, dig = case.check(out, oracle)
            why = "output outside its tolerance"
        if not ok:
            failed += 1
            if case.fault is None:
                correct = False  # only the fixed fault cases may fail
            problems.append(f"{case.kind} [{case.fault or 'unexpected'}]: {why}")
        elif dig is not None:
            by_kind.setdefault(case.kind, []).append(dig)
    digits_min = min(statistics.median(v) for v in by_kind.values()) if by_kind else 0.0
    return failed, correct, digits_min, problems


def setup_samples(args, own_setup_s):
    """Set-up time of this process and of fresh processes doing only the set-up."""
    samples = [own_setup_s]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        samples.append(float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def run(args):
    import_package()
    import cases

    table = cases.BUILDERS[args.workload](args.seed)
    warm_up(table)
    own_setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    import layers

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    try:
        outputs, pass_ms, op_ms, layer_passes, deterministic = measure(table, args.seconds, tracer, MIN_PASSES)
    finally:
        if tracer is not None:
            tracer.uninstall()
    passes = len(pass_ms)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the oracle loads

    import oracle

    references = oracle.Table(oracle.Oracle(), oracle.table_path(args.seed))
    failed, correct, digits_min, problems = check(table, outputs, references)
    correct &= deterministic
    if not deterministic:
        problems.append("a later pass did not reproduce the first pass's outputs")

    # every repeated time at its upper quartile over the passes: the host's speed drifts,
    # its fast spells come and go, and its slow level is the figure that repeats between
    # runs (see README.md)
    ops_per_s = len(table) / (upper_quartile(pass_ms) / 1e3)
    op_q3_ms = [upper_quartile(op_ms[i::len(table)]) for i in range(len(table))]
    if args.trace:
        metrics = {}
        for name in layers.COUNTS:
            metrics[name] = {"value": layer_passes[0][name], "unit": "count"}
            if any(p[name] != layer_passes[0][name] for p in layer_passes):
                correct = False
                problems.append(f"layer count {name} differs between passes")
        for name in layers.TIMES:
            metrics[name] = {"value": statistics.median(p[name] for p in layer_passes), "unit": "ms"}
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_ms_p50": {"value": statistics.median(op_q3_ms), "unit": "ms"},
            "op_ms_p90": {"value": statistics.quantiles(op_q3_ms, n=10, method="inclusive")[-1], "unit": "ms"},
            "digits_min": {"value": digits_min, "unit": "digits"},
            "setup_s": {"value": statistics.median(setup_samples(args, own_setup_s)), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    result = {"correct": bool(correct), "attempted": passes * len(table), "failed": passes * failed,
              "metrics": metrics}
    by_kind = {}
    for j, ms in enumerate(op_ms):
        by_kind.setdefault(table[j % len(table)].kind, []).append(ms)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": passes, "ops_per_pass": len(table), "pass_ms": pass_ms,
        "best_op_ms": [min(op_ms[i::len(table)]) for i in range(len(table))], "op_ms": op_ms,
        "kind_ms_p50": {kind: statistics.median(v) for kind, v in by_kind.items()},
        "problems": problems, "oracle_misses": references.misses, "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def smoke(seed):
    """One checked pass of every workload; returns 0 when every check passes."""
    import_package()
    import cases
    import oracle

    references = oracle.Table(oracle.Oracle(), oracle.table_path(seed))
    status = 0
    for workload in cases.WORKLOADS:
        table = cases.BUILDERS[workload](seed)
        outputs, pass_ms, _, _, _ = measure(table, 0.0)
        failed, correct, digits_min, problems = check(table, outputs, references)
        faults = sum(case.fault is not None for case in table)
        ok = correct and failed == faults
        status |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload}: {len(table)} ops in {pass_ms[0]:.0f} ms, "
              f"{failed} failed ({faults} known faults), digits_min {digits_min:.2f}")
        for line in problems:
            print(f"     {line}")
    if references.misses and seed == DEFAULT_SEED:
        print(f"note: {references.misses} oracle values were not in the cached table")
    return status


def remake_oracle_table(seed):
    """Write the oracle values one checked pass of every workload needs for this seed."""
    import_package()
    import cases
    import oracle

    table = oracle.Table(oracle.Oracle())
    for workload in cases.WORKLOADS:
        built = cases.BUILDERS[workload](seed)
        outputs = measure(built, 0.0)[0]
        check(built, outputs, table)
    table.save(oracle.table_path(seed))
    print(f"wrote {len(table.values)} values to {oracle.table_path(seed)}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("points1d", "grid1d", "tensor_nd", "segments"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true", help="one checked pass of every workload")
    parser.add_argument("--remake-oracle", action="store_true",
                        help="write the cached oracle table for --seed")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args.seed)
    if args.remake_oracle:
        return remake_oracle_table(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
