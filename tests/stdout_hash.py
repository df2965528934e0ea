"""Hash the stdout of every benchmark op, to pin the CLI's output bytes.

Run from the repository root:

    PYTHONPATH=src python tests/stdout_hash.py

It builds the op lists of `perfbench/workloads.py` for seeds 0-2 and runs
each op through `rieszforge.cli.main` in this process, in seed, workload and
op order.  It prints the number of ops and the sha256 of their stdouts
concatenated in that order, and exits 1 if an op returns an exit code its
workload does not allow.  The hash must not depend on the BLAS thread count
(OPENBLAS_NUM_THREADS).
"""

import hashlib
import io
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import BUILDERS, ops_for  # noqa: E402

from rieszforge.cli import main  # noqa: E402

SEEDS = (0, 1, 2)


def run(op) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(op.argv))
    if code not in op.exit_codes:
        sys.exit(f"exit code {code} from: rieszforge {op.label}")
    return out.getvalue()


def main_hash() -> None:
    digest, count = hashlib.sha256(), 0
    for seed in SEEDS:
        for workload in BUILDERS:
            for op in ops_for(workload, seed):
                digest.update(run(op).encode())
                count += 1
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main_hash()
