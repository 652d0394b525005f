"""Record the sha256 digests of hull and certify outputs for the default seed.

Run from the root of a checkout, only when an output change is intended:

    python3 perfbench/record_digests.py

Each digest is keyed by the digest of the instance's input files, so anchor
instances (the same on every seed) are checked on every seed and seeded
instances on the default seed.  Solver outputs are not recorded: they print
pivot and cut counts, which a change to the LP may legitimately alter.
"""

import json
import os
import sys

import run

RECORDED = ("hull", "certify")


def main():
    digests = {}
    for workload in RECORDED:
        workdir = os.path.join(run.WORK, f"record-{workload}")
        env, insts = run.setup(workload, run.DEFAULT_SEED, workdir)
        _, _, _, results = run.run_pass(env, workload, insts)
        refs = [run.reference(env, workload, inst) for inst in insts]
        first = [None] * len(insts)
        failures = run.check_pass(env, workload, insts, results, refs, {}, first)
        if failures:
            sys.exit(f"not recording: {failures}")
        digests[workload] = {run.input_key(inst): digest
                             for inst, digest in zip(insts, first)}
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
