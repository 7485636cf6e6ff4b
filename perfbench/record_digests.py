#!/usr/bin/env python3
"""Record the output digest of one pass of every workload for seeds 0-31
into perfbench/digests.json, which run.py then holds every later run to.

    python3 perfbench/record_digests.py

Run it only when the workloads themselves change: a change to the package
must reproduce the recorded digests, not replace them.
"""

import json
import sys

import run

SEEDS = range(32)


def main() -> int:
    run.use_checkout_src()
    table = {}
    for workload in run.WORKLOADS:
        # the verify corpus is fixed, so its digest is the same for every seed
        seeds = SEEDS if workload != "verify" else SEEDS[:1]
        table[workload] = {}
        for seed in seeds:
            report = run.run_pass(workload, seed, trace=False)
            if report["failures"]:
                print(f"{workload} seed {seed}: {report['failures']}", file=sys.stderr)
                return 1
            table[workload][str(seed)] = report["digest"]
            print(workload, seed, report["digest"][:16], flush=True)
        if workload == "verify":
            digest = table[workload]["0"]
            table[workload] = {str(seed): digest for seed in SEEDS}
    (run.HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
