"""Import cost: scipy's special functions and linear algebra load only on demand.

A fresh interpreter runs the stages in process and reports, after each,
which of the heavy scipy modules it has loaded.
"""

import json
import subprocess
import sys
from pathlib import Path

import crossingsim

SRC = str(Path(crossingsim.__file__).resolve().parent.parent)
HEAVY = ("scipy.special", "scipy.linalg")

CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
out, heavy = sys.argv[2], sys.argv[3].split(",")

def loaded():
    return [name for name in heavy if name in sys.modules]

report = {}
import crossingsim.cli
report["import"] = loaded()
from crossingsim.ingest import reference_generator
reference_generator().save(out + "/model.json")
with open(out + "/config.json", "w") as handle:
    json.dump({"master_seed": 5, "eval": {"n_experiments": 2}}, handle)
for stage in ("simulate", "evaluate"):
    with contextlib.redirect_stdout(io.StringIO()):
        status = crossingsim.cli.main([stage, "--config", out + "/config.json", "--out", out])
    report[stage] = {"status": status, "loaded": loaded()}
print(json.dumps(report))
"""


def test_scipy_special_and_linalg_load_only_when_needed(tmp_path):
    child = subprocess.run(
        [sys.executable, "-c", CHILD, SRC, str(tmp_path), ",".join(HEAVY)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["import"] == []
    assert report["simulate"] == {"status": 0, "loaded": []}
    # The human baseline's 1-D box masses need the normal CDF, so evaluate
    # is where scipy.special comes in.
    assert report["evaluate"] == {"status": 0, "loaded": ["scipy.special"]}
