"""Import cost: no stage loads scipy, and only a parallel run the process pool.

A fresh interpreter runs the stages in process and reports, after each,
which scipy modules and process-pool modules it has loaded.  Another
imports the scalar normal layer alone, which loads no other module of
the package.
"""

import json
import subprocess
import sys
from pathlib import Path

import crossingsim

SRC = str(Path(crossingsim.__file__).resolve().parent.parent)
POOL = "concurrent.futures.process"

CHILD = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
out, pool = sys.argv[2], sys.argv[3]

def loaded():
    return sorted(
        name for name in sys.modules
        if name == "scipy" or name.startswith("scipy.") or name == pool
    )

def run(stage, config, directory, *extra):
    with contextlib.redirect_stdout(io.StringIO()):
        status = crossingsim.cli.main([stage, "--config", config, "--out", directory, *extra])
    return {"status": status, "loaded": loaded()}

report = {}
import crossingsim.cli
report["import"] = loaded()
from crossingsim.ingest import reference_generator
reference_generator().save(out + "/model.json")
with open(out + "/config.json", "w") as handle:
    json.dump({"master_seed": 5, "eval": {"n_experiments": 2}}, handle)
# A 4-D truncated fit over K = 1..2 with a few EM iterations, in a
# directory of its own so that the later stages keep the reference model.
os.mkdir(out + "/fit")
with open(out + "/fit/config.json", "w") as handle:
    json.dump({
        "master_seed": 5,
        "mixture": {"k_min": 1, "k_max": 2, "max_iterations": 3, "mc_moment_draws": 500},
        "ingest": {"n_synthetic": 300},
    }, handle)
for stage in ("gen-data", "fit"):
    report[stage] = run(stage, out + "/fit/config.json", out + "/fit")
report["condition"] = run(
    "condition", out + "/config.json", out, "--given", "inv_R=0.12", "--given", "v=5.0"
)
for stage in ("simulate", "evaluate"):
    report[stage] = run(stage, out + "/config.json", out)
print(json.dumps(report))
"""


def test_scipy_special_and_linalg_load_only_when_needed(tmp_path):
    child = subprocess.run(
        [sys.executable, "-c", CHILD, SRC, str(tmp_path), POOL],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["import"] == []
    # The 1-D normal CDF of the condition table and of the human baseline's
    # mode search is the package's own, and a serial evaluate starts no pool.
    for stage in ("gen-data", "fit", "condition", "simulate", "evaluate"):
        assert report[stage] == {"status": 0, "loaded": []}, stage


# The package's __init__ imports every module, so the child puts a bare
# package in its place and imports crossingsim.normal alone.
LEAF = """
import json, sys, types
package = types.ModuleType("crossingsim")
package.__path__ = [sys.argv[1] + "/crossingsim"]
sys.modules["crossingsim"] = package
import crossingsim.normal
print(json.dumps(sorted(
    name for name in sys.modules if name.split(".")[0] in ("crossingsim", "scipy")
)))
"""


def test_normal_layer_imports_no_other_module_of_the_package():
    child = subprocess.run(
        [sys.executable, "-c", LEAF, SRC], capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == ["crossingsim", "crossingsim.normal"]
