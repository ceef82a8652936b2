"""Regenerate reference.json, the bit-error totals the benchmark checks against.

    python3 perfbench/make_reference.py

For every workload and grid point it runs REF_OPS ops with seeds that the
benchmark never uses and stores the summed [bit errors, bits] per count
key. Regenerate it only when the engine's error rates are meant to
change; a change of draw order alone stays within the tolerance.
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import HERE, add_counts, load_engine
from workloads import ALL_WORKLOADS, derive_seed

REF_OPS = 16


def main() -> int:
    eng = load_engine()
    reference = {}
    with tempfile.TemporaryDirectory() as workdir:
        for wl in ALL_WORKLOADS.values():
            ctx = wl.prepare(eng, workdir)
            totals = {}
            for p, point in enumerate(wl.points):
                for j in range(REF_OPS):
                    res = wl.op(eng, ctx, point, derive_seed("reference", wl.name, p, j))
                    if res.problem:
                        print(f"{wl.name} {point}: {res.problem}", file=sys.stderr)
                        return 1
                    add_counts(totals, res.counts)
            reference[wl.name] = dict(sorted(totals.items()))
            print(f"{wl.name}: {len(totals)} keys", flush=True)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
