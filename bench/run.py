"""occrebench benchmark: one workload in one process on one thread.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``train_occluder``, ``eval_kitti360`` or ``eval_occluder`` (see
``workloads.py``).  After one untimed operation under tracemalloc, one
client runs operations back to back (a closed loop) for up to S seconds,
and every operation's output is checked.

With ``--trace 0`` the end-to-end metrics are reported: ``setup_s`` (median
of set-ups repeated between the operations), ``op_ms_p50`` and
``peak_mem_mib``.  With ``--trace 1``
operations alternate between untraced and traced, and the per-layer metrics are
reported: each layer's self time per operation, computed work counts,
stage memory peaks and the tracing overhead.

Standard output ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the same numbers for a reader, with the run metadata.  Exits non-zero
without that line when the package cannot be imported.
"""

import os

# Pin BLAS threads before numpy is imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "occrebench"
# After each timed operation, set-up is repeated for this share of the
# operation's time (at least once), so that the set-up samples are spread
# over the run and see the same machine conditions as the operations.
SETUP_SHARE = 0.05
P90_MIN_SAMPLES = 100


class Tally:
    """Operations attempted and failed; a failure is an exception or a
    failed output check."""

    def __init__(self, quiet: bool = False):
        self.attempted = 0
        self.failed = 0
        self.quiet = quiet

    def record(self, wl, st, out, error) -> bool:
        self.attempted += 1
        if error is None:
            try:
                problems = wl.check(st, out)
            except Exception:
                problems = [traceback.format_exc()]
        else:
            problems = [error]
        if problems:
            self.failed += 1
            if not self.quiet and self.failed == 1:
                print("op failed: " + "; ".join(problems), file=sys.stderr)
        return not problems


def call(fn):
    """(result, None) or (None, formatted traceback)."""
    try:
        return fn(), None
    except Exception:
        return None, traceback.format_exc()


def untraced(op_id, fn):
    return fn()


def closed_loop(wl, st, seconds: float, tally: Tally, runners=(untraced,),
                after_op=None) -> list:
    """Run operations back to back, taking turns between ``runners`` (each
    ``runner(op_id, op)``), until another round would not end within
    ``seconds``; at least one round runs.  ``after_op(call seconds)`` runs
    after each operation, outside its timing.  Returns, per runner, the time
    of each operation: a call's time divided by the iterations it runs."""
    times = [[] for _ in runners]
    start = round_start = time.perf_counter()
    for op_id in itertools.count():
        turn = op_id % len(runners)
        t0 = time.perf_counter()
        out, error = call(lambda: runners[turn](op_id, lambda: wl.op(st)))
        call_s = time.perf_counter() - t0
        times[turn].append(call_s / wl.iterations)
        tally.record(wl, st, out, error)
        if after_op is not None:
            after_op(call_s)
        if turn == len(runners) - 1:
            now = time.perf_counter()
            if now + (now - round_start) > start + seconds:
                return times
            round_start = now


def self_test(wl, st, out) -> bool:
    """Feed corrupted copies of a checked output through the same checks;
    every one must be counted as failed."""
    if out is None:
        return False
    cases = wl.corruptions(st, out)
    probe = Tally(quiet=True)
    for _, bad in cases:
        probe.record(wl, st, bad, None)
    ok = len(cases) > 0 and probe.failed == probe.attempted == len(cases)
    labels = ", ".join(label for label, _ in cases)
    print(f"self-test: {probe.failed}/{probe.attempted} corrupted outputs "
          f"({labels}) counted as failed -> {'ok' if ok else 'BROKEN'}")
    return ok


def metadata(seed: int) -> dict:
    import numpy as np

    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        revision = proc.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {"git_revision": revision, "src_sha256": digest.hexdigest(),
            "src_lines": lines, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_s: list, times: list, peak_mib: float, tally: Tally, iters: int) -> dict:
    n = len(times)
    p50 = statistics.median(times) * 1e3
    what = f"one op = one of {iters} iterations per call" if iters > 1 else "one op = one call"
    print(f"setup_s = {statistics.median(setup_s):.6g} s (median of {len(setup_s)} set-ups)")
    print(f"op_ms_p50 = {p50:.4f} ms (n={n}; {what})")
    if n >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(times, n=10)[-1] * 1e3
        print(f"op_ms_p90 = {p90:.4f} ms (n={n})")
    else:
        print(f"op_ms_p90 omitted (n={n} < {P90_MIN_SAMPLES})")
    print(f"peak_mem_mib = {peak_mib:.3f} MiB (tracemalloc, one untimed op)")
    print(f"failed_frac = {tally.failed}/{tally.attempted}")
    return {"setup_s": metric(statistics.median(setup_s), "s"),
            "op_ms_p50": metric(p50, "ms"),
            "peak_mem_mib": metric(peak_mib, "MiB")}


def per_layer(tracer, untraced: list, traced: list, stage_mib: dict, iters: int) -> tuple:
    """Per-layer metrics, and whether self times add up to the traced op time."""
    per_op = 1.0 / (len(traced) * iters)
    out = {name: metric(v, unit) for name, (v, unit) in tracer.layer_metrics(per_op).items()}
    out.update({f"{name}.peak_mib": metric(mib, "MiB") for name, mib in stage_mib.items()})
    traced_ms = sum(tracer.op_seconds()) * per_op * 1e3
    self_sum_ms = sum(tracer.self_seconds(ops=True).values()) * per_op * 1e3
    adds_up = abs(self_sum_ms - traced_ms) <= 1e-9 * traced_ms
    out["harness.op_traced_ms"] = metric(traced_ms, "ms")
    out["harness.op_untraced_ms"] = metric(statistics.median(untraced) * 1e3, "ms")
    out["harness.trace_overhead_ms"] = metric(
        (statistics.median(traced) - statistics.median(untraced)) * 1e3, "ms")

    per_iteration = "; values are per iteration" if iters > 1 else ""
    print(f"traced ops: {len(traced)}, untraced ops: {len(untraced)}{per_iteration}")
    for name, m in sorted(out.items()):
        share = (f"  ({100 * m['value'] / traced_ms:.1f}% of traced op)"
                 if name.endswith(".self_ms") and m["value"] else "")
        print(f"{name} = {m['value']:.6g} {m['unit']}{share}")
    print(f"self times sum to {self_sum_ms:.6f} ms; traced op mean {traced_ms:.6f} ms "
          f"-> {'adds up' if adds_up else 'DOES NOT ADD UP'}")
    print(f"tracing overhead = {out['harness.trace_overhead_ms']['value']:.4f} ms per op "
          f"(traced p50 - untraced p50)")
    return out, adds_up


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not PACKAGE.is_dir():
        print(f"error: package sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    print("metadata " + json.dumps(metadata(args.seed), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: closed loop, one client, "
          f"{args.seconds:g} s")

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        setup_s = []

        def set_up():
            t0 = time.perf_counter()
            state = wl.setup(args.seed, workdir)
            if args.seed == workloads.DEFAULT_SEED:
                state.expected = workloads.reference(args.workload)
            setup_s.append(time.perf_counter() - t0)
            return state

        def sample_set_up(op_s):
            budget = SETUP_SHARE * op_s
            while budget > 0:
                set_up()
                budget -= setup_s[-1]

        st = set_up()

        # The first operation runs untimed under tracemalloc; it also warms up.
        tally = Tally()
        mem = tracing.MemoryPass()
        result, error = call(lambda: mem.run_op(lambda: wl.op(st)))
        out, peak_mib = result if result is not None else (None, 0.0)
        if tally.record(wl, st, out, error) and st.expected is None:
            st.expected = wl.summary(out)
        selftest_ok = self_test(wl, st, out)

        tracing.assert_unwrapped()
        if not args.trace:
            (times,) = closed_loop(wl, st, args.seconds, tally, after_op=sample_set_up)
            metrics = end_to_end(setup_s, times, peak_mib, tally, wl.iterations)
            adds_up = True
        else:
            tracer = tracing.Tracer()

            def traced(op_id, op):
                with tracer.installed():
                    return tracer.run_op(op_id, op)

            with tracer.installed():
                wl.setup(args.seed, workdir)
            plain_times, traced_times = closed_loop(wl, st, args.seconds, tally,
                                                    (untraced, traced))
            tracing.assert_unwrapped()
            metrics, adds_up = per_layer(tracer, plain_times, traced_times,
                                         mem.stage_mib, wl.iterations)

    correct = tally.failed == 0 and selftest_ok and adds_up
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
