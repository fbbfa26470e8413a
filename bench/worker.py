"""One benchmark process: import wzcert, then run one action on the cache dir
named by WZ_CACHE_DIR and write `result.json` into the output directory.

    python3 bench/worker.py '{"action": ..., "out_dir": ..., "trace": ...}'

`run.py` starts it with `src` on PYTHONPATH.  Set-up ends when the program's
modules are imported ("ready"); the timed section is the action alone.  Report
files are written after the timed section, except where the command itself
writes them (`both_cli_j2`).
"""

import json
import os
import resource
import sys
import time
import traceback


def _usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"cpu": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
            "rss_kb": max(own.ru_maxrss, kids.ru_maxrss)}


def _scan(pmax, mode):
    from wzcert import certify
    report = certify.scan_report(pmax, mode, jobs=1)
    return 0, {mode: certify.emit_report(report)}


def _cli_both(out_dir):
    from wzcert import cli
    out = os.path.join(out_dir, "scan.json")
    rc = cli.main(["scan", "--pmax", "180", "--mode", "both", "--jobs", "2",
                   "--out", out])
    return rc, None


def _prefill(_out_dir):
    from wzcert import certify
    certify.scan_report(180, "ordinary", jobs=2)
    return 0, {}


ACTIONS = {
    "nonord_cold": lambda out_dir: _scan(200, "nonordinary"),
    "ord_warm": lambda out_dir: _scan(180, "ordinary"),
    "both_cli_j2": _cli_both,
    "prefill_ord": _prefill,
}


def main():
    cfg = json.loads(sys.argv[1])
    import wzcert.cli  # noqa: F401  (the program is ready once it is imported)
    ready = time.monotonic()
    out_dir = cfg["out_dir"]
    result = {"ready": ready, "pid": os.getpid()}
    action = cfg["action"]
    if action != "setup":
        tracer = None
        if cfg["trace"]:
            import tracer as tracing
            tracer = tracing.install(cfg["run_id"], cfg["spans_dir"])
        before = _usage()
        start = time.monotonic()
        try:
            rc, reports = ACTIONS[action](out_dir)
            error = None
        except Exception:  # a failed scan is reported, not fatal to the bench
            rc, reports, error = None, {}, traceback.format_exc()
        end = time.monotonic()
        after = _usage()
        if tracer is not None:
            tracer.flush()
        if reports is None:  # the CLI wrote its own files
            reports = {}
            for mode in ("ordinary", "nonordinary"):
                path = os.path.join(out_dir, f"scan.{mode}.json")
                if os.path.exists(path):
                    with open(path, encoding="ascii") as fh:
                        reports[mode] = fh.read()
        for mode, text in reports.items():
            with open(os.path.join(out_dir, f"{mode}.json"), "w",
                      encoding="ascii") as fh:
                fh.write(text)
        result.update(start=start, end=end, rc=rc, error=error,
                      modes=sorted(reports), cpu_s=after["cpu"] - before["cpu"],
                      peak_rss_mb=after["rss_kb"] / 1024.0)
    with open(os.path.join(out_dir, "result.json"), "w", encoding="ascii") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
