"""Write bench/golden.json from one untraced iteration of every workload.

    python3 bench/record_golden.py

The digests pin the certificates the program produces at the commit where
they are recorded.  Re-record them only in a change that means to alter
certificates, and say which ones changed and why.
"""

import json
import os
import shutil
import sys
import time

import run


def main():
    os.makedirs(run.TMP, exist_ok=True)
    golden = {}
    for workload in run.WORKLOADS:
        run_dir = os.path.join(run.TMP, f"golden-{workload}-{os.getpid()}")
        os.makedirs(run_dir)
        try:
            bench_run = run.Run(workload, run_dir, time.monotonic() + 600, "golden")
            result = bench_run.iteration()
            if result["error"] or result["rc"] != 0:
                sys.exit(f"{workload}: {result['error'] or result['rc']}")
            golden[workload] = {}
            for mode in result["modes"]:
                with open(os.path.join(result["dir"], f"{mode}.json"),
                          encoding="ascii") as fh:
                    text = fh.read()
                doc = json.loads(text)
                golden[workload][mode] = {
                    "certified": doc["certified"],
                    "report_sha256": run.sha256(text),
                    "certificates": {
                        str(c["p"]): run.sha256(run.canonical_json(c))
                        for c in doc["certificates"]},
                }
                print(f"{workload} {mode}: certified {doc['certified']}")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    with open(os.path.join(run.BENCH, "golden.json"), "w", encoding="ascii") as fh:
        json.dump({"workloads": golden}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
