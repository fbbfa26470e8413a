"""The traced benchmark still installs on the program.

`bench/tracer.py` binds program functions, classes and modules by name, so a
renamed or deleted one breaks every `--trace 1` run.  This runs the tracer's
install, a cold and a warm certification of p = 23, and the harness's
per-layer metrics in a fresh process, as `bench/worker.py` does.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
import run, tracer
from wzcert import cache, certify as cf

spans = sys.argv[1]
traced = tracer.install("tier1", spans)
out = {}
cf.certify(23, "ordinary")
cf.certify(23, "nonordinary")
traced.flush()
out["cold"] = run.layer_metrics(tracer.merge(spans), 1.0, 1.0)
cache.clear_memos()
cf.certify(23, "ordinary")
traced.flush()
out["warm"] = run.layer_metrics(tracer.merge(spans), 1.0, 1.0)
out["declared"] = sorted(run.declared_metrics()[1])
print(json.dumps(out))
"""


def test_traced_bench_installs_and_reports_every_layer_metric(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    env["WZ_CACHE_DIR"] = str(tmp_path / "cache")
    env["XDG_CACHE_HOME"] = str(tmp_path / "xdg")
    env["PYTHONDONTWRITEBYTECODE"] = "1"      # leave bench/ as checked out
    spans = tmp_path / "spans"
    spans.mkdir()
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(spans)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.splitlines()[-1])
    cold, warm = out["cold"], out["warm"]
    assert sorted(cold) == sorted(warm) == out["declared"]
    assert cold["certify.certify.calls"] == 2 and warm["certify.certify.calls"] == 3
    assert cold["hecke.classes"] > 0 and cold["cache.put.calls"] > 0
    # computed eigenvalues are field elements; only decoding a cached entry
    # checks coordinates, and the warm run decodes without writing
    assert cold["exactarith.ExtFieldElem.created"] == 0
    assert warm["exactarith.ExtFieldElem.created"] > 0
    assert warm["cache.put.calls"] == cold["cache.put.calls"]
