"""wzcert benchmark: fixed scans in fresh processes, checked against golden
certificate digests.

    python3 bench/run.py --workload nonord_cold --seed 1 --seconds 30 --trace 0

Run it from a checkout: it imports the program from `src/` and writes only
under `.bench_tmp/`, which it removes again.  Every iteration is a fresh
`worker.py` process with a fresh WZ_CACHE_DIR.  With `--trace 0` it repeats
the workload until `--seconds` of timed work are done and reports medians of
the end-to-end metrics; with `--trace 1` it runs the workload once untraced
and once traced, checks that both produce the same report bytes, and reports
the per-layer metrics.  The last line of standard output is the result
object; the metric names and units are those of BENCHMARK.json.
"""

import argparse
import fcntl
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".bench_tmp")

WORKLOADS = ("nonord_cold", "ord_warm", "both_cli_j2")
PREFILLED = {"ord_warm": "prefill_ord"}  # workload -> untimed prefill action
SETUP_SAMPLES = 2   # standalone import timings, besides one per iteration
BUDGET_S = 150      # no new iteration may start that could end after this

# bypass predictions checked on the traced run: stat name -> calls expected
EXPECTED_CALLS = {
    "ord_warm": {"cache.put": 0, "fflinalg.mat_nullspace": 0,
                 "fflinalg.mat_charpoly": 0, "fflinalg.rref": 0},
    "nonord_cold": {"galoischecks.split_verdict": 0},
}


def canonical_json(doc):
    """The program's canonical JSON form (sorted keys, indent 2, ASCII)."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def sha256(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def load_golden():
    with open(os.path.join(BENCH, "golden.json"), encoding="ascii") as fh:
        return json.load(fh)["workloads"]


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# processes


def _env(run_dir, cache_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["WZ_CACHE_DIR"] = cache_dir
    # nothing may fall back to the user's cache directory
    env["XDG_CACHE_HOME"] = os.path.join(run_dir, "xdg-cache")
    return env


def spawn(action, work_dir, cache_dir, run_dir, deadline, trace=0, run_id=""):
    """Run worker.py once; returns its result with `setup_s` and `wall_s`."""
    os.makedirs(work_dir)
    spans_dir = os.path.join(work_dir, "spans")
    os.makedirs(spans_dir)
    cfg = {"action": action, "out_dir": work_dir, "trace": trace,
           "run_id": run_id, "spans_dir": spans_dir}
    log_path = os.path.join(work_dir, "log.txt")
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(cfg)],
            cwd=ROOT, env=_env(run_dir, cache_dir), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            try:  # the worker and any pool process it left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"{action} worker exited with {proc.returncode}:\n{tail}")
    with open(os.path.join(work_dir, "result.json"), encoding="ascii") as fh:
        result = json.load(fh)
    result["dir"] = work_dir
    result["setup_s"] = result["ready"] - spawned
    if "start" in result:
        result["wall_s"] = result["end"] - result["start"]
    return result


class Run:
    """One benchmark run: a private directory, a deadline, and its iterations."""

    def __init__(self, workload, run_dir, deadline, run_id):
        self.workload = workload
        self.run_dir = run_dir
        self.deadline = deadline
        self.run_id = run_id
        self.count = 0
        self.prefill_dir = None

    def _dir(self, label):
        self.count += 1
        return os.path.join(self.run_dir, f"{self.count:02d}-{label}")

    def setup_sample(self):
        return spawn("setup", self._dir("setup"), os.path.join(self.run_dir, "nocache"),
                     self.run_dir, self.deadline)["setup_s"]

    def iteration(self, trace=0):
        work_dir = self._dir("trace" if trace else "plain")
        cache_dir = work_dir + "-cache"
        prefill = PREFILLED.get(self.workload)
        if prefill and self.prefill_dir is None:
            prefill_work = self._dir("prefill")
            self.prefill_dir = prefill_work + "-cache"
            filled = spawn(prefill, prefill_work, self.prefill_dir, self.run_dir,
                           self.deadline)
            if filled["error"]:
                raise RuntimeError(f"{prefill} failed:\n{filled['error']}")
        if prefill:
            shutil.copytree(self.prefill_dir, cache_dir)
        else:
            os.makedirs(cache_dir)
        return spawn(self.workload, work_dir, cache_dir, self.run_dir,
                     self.deadline, trace=trace, run_id=self.run_id)


# ---------------------------------------------------------------------------
# correctness gate


def check(result, golden):
    """(attempted, failed, problems, report texts) of one iteration.

    A prime fails when the scan raised, the command's exit code was not 0, or
    its certificate's sha256 differs from the golden one.
    """
    attempted = failed = 0
    problems, texts = [], {}
    if result["error"]:
        problems.append(result["error"])
    elif result["rc"] != 0:
        problems.append(f"exit code {result['rc']}")
    crashed = bool(problems)
    for mode, want in sorted(golden.items()):
        primes = want["certificates"]
        attempted += len(primes)
        path = os.path.join(result["dir"], f"{mode}.json")
        if crashed or not os.path.exists(path):
            failed += len(primes)
            problems.append(f"{mode}: no report")
            continue
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        texts[mode] = text
        doc = json.loads(text)
        got = {str(c["p"]): sha256(canonical_json(c)) for c in doc["certificates"]}
        bad = [p for p, digest in primes.items() if got.get(p) != digest]
        failed += len(bad)
        if bad:
            problems.append(f"{mode}: certificate digest differs at p={bad}")
        if sorted(got, key=int) != sorted(primes, key=int):
            problems.append(f"{mode}: report covers primes {sorted(got, key=int)}")
        if doc["certified"] != want["certified"]:
            problems.append(f"{mode}: certified list {doc['certified']}")
        if sha256(text) != want["report_sha256"]:
            problems.append(f"{mode}: report digest differs")
    return attempted, failed, problems, texts


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(trace, traced_wall, plain_wall):
    """Per-layer metrics of one merged trace (see bench/README.md)."""
    agg, counts, keys = trace["agg"], trace["counts"], trace["keys"]
    calls = lambda name: agg.get(name, [0, 0.0, 0.0])[0]
    incl_s = lambda name: agg.get(name, [0, 0.0, 0.0])[1]
    self_s = lambda name: agg.get(name, [0, 0.0, 0.0])[2]
    ratio = lambda num, den: num / den if den else 0.0
    m = {}
    for name in ("qseries.miller_basis", "fflinalg.mat_nullspace",
                 "fflinalg.mat_charpoly", "ffpoly.factor_monic",
                 "ffpoly.canonical_modulus", "ffpoly.embed_root",
                 "hecke.eigensystems", "hecke.ap_profile",
                 "galoischecks.split_verdict", "galoischecks.large_image_verdict",
                 "tame.lift_check", "cache.get", "cache.put"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("fflinalg.rref", "ffpoly.split_roots", "certify.emit_report",
                 "cli.main"):
        m[f"{name}.self_s"] = self_s(name)
    m["fflinalg.mat_nullspace.incl_s"] = incl_s("fflinalg.mat_nullspace")
    m["exactarith.ExtFieldElem.created"] = counts.get("exactarith.ExtFieldElem.created", 0)

    systems = keys.get("hecke.eigensystems", {})
    m["hecke.eigensystems.distinct_ratio"] = ratio(len(systems), calls("hecke.eigensystems"))
    m["hecke.classes"] = sum(info[0] for info in systems.values())
    m["hecke.max_ext_degree"] = max((info[1] for info in systems.values()), default=0)
    m["hecke.overflow_classes"] = sum(info[2] for info in systems.values())
    m["galoischecks.companion_match.hit_ratio"] = ratio(
        counts.get("galoischecks.companion_match.hits", 0),
        calls("galoischecks.companion_match"))
    m["tame.lift_check.distinct_ratio"] = ratio(
        len(keys.get("tame.lift_check", {})), calls("tame.lift_check"))
    for ns in ("basis", "eigsys", "profile"):
        m[f"cache.get.hit_ratio.{ns}"] = ratio(
            counts.get(f"cache.get.{ns}.hit", 0), counts.get(f"cache.get.{ns}", 0))
    m["cache.put.bytes"] = counts.get("cache.put.bytes", 0)

    spans = trace["spans"]
    primes = [s for s in spans if s["name"] == "certify.certify"]
    latencies = sorted(s["end"] - s["start"] for s in primes)
    m["certify.certify.calls"] = len(primes)
    m["certify.certify.p50_s"] = statistics.median(latencies) if latencies else 0.0
    m["certify.certify.p75_s"] = (statistics.quantiles(latencies, n=4)[2]
                                  if len(latencies) > 1 else m["certify.certify.p50_s"])
    busy = capacity = tail = 0.0
    for scan in (s for s in spans if s["name"] == "certify.scan_report"):
        mine = [s for s in primes if s["parent"] == scan["id"]]
        busy += sum(s["end"] - s["start"] for s in mine)
        capacity += scan["attrs"]["jobs"] * (scan["end"] - scan["start"])
        last_end = {}
        for s in mine:
            last_end[s["pid"]] = max(last_end.get(s["pid"], s["end"]), s["end"])
        if last_end:
            tail += scan["end"] - min(last_end.values())
    m["certify.scan.busy_ratio"] = ratio(busy, capacity)
    m["certify.scan.tail_s"] = tail
    m["trace.overhead_ratio"] = traced_wall / plain_wall
    return m


def machine_record(workload, seed):
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions,
            "loadavg_at_start": os.getloadavg()}


# ---------------------------------------------------------------------------
# main


def measure(run, seconds, golden):
    """Untraced iterations until `seconds` of timed work; end-to-end metrics."""
    setups = [run.setup_sample() for _ in range(SETUP_SAMPLES)]
    iterations, attempted, failed, problems = [], 0, 0, []
    begun = time.monotonic()
    while not iterations or sum(r["wall_s"] for r in iterations) < seconds:
        last = (time.monotonic() - begun) / max(1, len(iterations))
        if iterations and time.monotonic() + last > run.deadline - 30:
            break
        result = run.iteration()
        iterations.append(result)
        setups.append(result["setup_s"])
        a, f, p, _texts = check(result, golden)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in iterations),
        "cpu_s": statistics.median(r["cpu_s"] for r in iterations),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in iterations),
        "setup_s": statistics.median(setups),
        "pass_ratio": (attempted - failed) / attempted,
    }
    detail = {"iterations": len(iterations),
              "wall_s": [r["wall_s"] for r in iterations],
              "setup_s": setups}
    return metrics, attempted, failed, problems, detail


def measure_traced(run, golden):
    """One untraced and one traced iteration; per-layer metrics."""
    plain = run.iteration()
    a1, f1, problems, plain_texts = check(plain, golden)
    traced = run.iteration(trace=1)
    a2, f2, p2, traced_texts = check(traced, golden)
    problems += p2
    if traced_texts != plain_texts:
        problems.append("traced report bytes differ from the untraced ones")
    trace = tracer.merge(os.path.join(traced["dir"], "spans"))
    if trace["run"] != run.run_id:
        problems.append(f"trace belongs to run {trace['run']}")
    if len([s for s in trace["spans"] if s["name"] == "certify.certify"]) != a2:
        problems.append("traced run lost per-prime spans")
    for name, want in EXPECTED_CALLS.get(run.workload, {}).items():
        got = trace["agg"].get(name, [0])[0]
        if got != want:
            problems.append(f"bypass prediction broken: {name} made {got} calls, "
                            f"expected {want}")
    metrics = layer_metrics(trace, traced["wall_s"], plain["wall_s"])
    detail = {"plain_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
              "processes": len(trace["pids"])}
    return metrics, a1 + a2, f1 + f2, problems, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wzcert", "__init__.py")):
        print(f"error: no wzcert sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # The scans are fixed by design (the certifier's whole input is pmax,
    # mode and jobs), so the seed selects nothing; it is recorded with the run.
    golden = load_golden()[args.workload]
    end_to_end, per_layer = declared_metrics()
    os.makedirs(TMP, exist_ok=True)
    with open(os.path.join(TMP, "lock"), "w", encoding="ascii") as lock:
        try:  # runs in one checkout must never overlap
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("error: another benchmark run holds .bench_tmp/lock",
                  file=sys.stderr)
            return 2
        machine = machine_record(args.workload, args.seed)
        run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
        run_dir = os.path.join(TMP, run_id)
        os.makedirs(run_dir)
        try:
            run = Run(args.workload, run_dir, time.monotonic() + BUDGET_S, run_id)
            if args.trace:
                metrics, attempted, failed, problems, detail = measure_traced(run, golden)
                units = per_layer
            else:
                metrics, attempted, failed, problems, detail = measure(
                    run, args.seconds, golden)
                units = end_to_end
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are "
                           "computed or declared, not both")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"machine": machine, "detail": detail}))
    for name in units:
        print(f"{name} = {metrics[name]} {units[name]}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
