"""Record the outputs the benchmark checks at its default seed.

    python3 bench/record_reference.py

Runs one operation of every workload at ``workloads.DEFAULT_SEED`` and
writes one file per workload under ``bench/reference/``: the trained
parameters and loss traces of ``train_occluder`` and the count tables of the
evaluation workloads.  These files pin the program's outputs; re-record them
only in a change to the benchmark itself, never to make a program change
pass.
"""

import sys
import tempfile

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.PACKAGE.parent))

import json  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as workdir:
        for name, wl in workloads.WORKLOADS.items():
            st = wl.setup(workloads.DEFAULT_SEED, workdir)
            out = wl.op(st)
            problems = wl.check(st, out)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            record = {k: v.tolist() if hasattr(v, "tolist") else v
                      for k, v in wl.summary(out).items()}
            path = workloads.REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(record, indent=1) + "\n")
            print(f"{name}: recorded to {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
