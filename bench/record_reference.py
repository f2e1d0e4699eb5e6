"""Record the benchmark's reference outputs from the library as it is.

    python3 bench/record_reference.py

Writes bench/reference.json with, for seeds 0 to 15, the outage counts
of every sweep operation and a digest of every corpus network's
record; the full records of the corpus at the default seed 0; and the
pipeline record of each family that the traced run's profile computes.
Record only from a commit whose outputs are known to be right: every
later run is checked against this file.
"""

from __future__ import annotations

import json
import os
import sys

SEEDS = range(16)
DEFAULT_SEED = 0


def main():
    from run import BENCH_DIR, SRC, import_library

    sys.path.insert(0, str(SRC))
    import workloads as W

    R = import_library()
    ops = {(f, fn) for table in W.SWEEP_OPS.values() for f, fn in table}
    ref = {"default_seed": DEFAULT_SEED, "sweeps": {}, "structure": {}, "pipeline": {}}
    for seed in SEEDS:
        ref["sweeps"][str(seed)] = {
            f"{f}/{fn}": W.SweepOp(R, f, fn, seed, W.FAMILY_TRIALS[f]).run()
            for f, fn in sorted(ops)}
        records = {op.key: op.run() for op in W.corpus_ops(R, seed)}
        ref["structure"][str(seed)] = (
            records if seed == DEFAULT_SEED
            else {key: W.digest(rec) for key, rec in records.items()})
        print(f"seed {seed} recorded", file=sys.stderr)
    for family, build in W.FAMILIES.items():
        ref["pipeline"][family] = W.pipeline(R, build(R), 0)
    (BENCH_DIR / "reference.json").write_text(
        json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    main()
