"""The same bytes on every supported interpreter: each python3.10 to python3.14
on PATH that starts runs every simulate scenario and variant at seed 42, and
one small trace with bad lines and notes, through the CLI, and gets the exit
codes, trace and report bytes and stderr (less the timing) that the running
interpreter gets. An interpreter that is absent, or a pyenv shim of a version
that is not selected, is skipped."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Run by each interpreter as `-c` with argv [src, workdir]; prints one JSON list
# of (run, exit code, sha256 of the file written, stderr less the timing).
CHILD = r"""
import contextlib, hashlib, io, json, os, re, sys
sys.path.insert(0, sys.argv[1])
from evalgate import cli
from evalgate.simulate import SCENARIO_VARIANTS

work = sys.argv[2]
small = os.path.join(work, "small.jsonl")
with open(small, "wb") as handle:
    handle.write(
        b'{"type":"step","step_index":1,"step_name":"alone","confidence":0.9}\n'
        b'{"type":"step","step_index":1,"step_name":"a","confidence":0.31}\n'
        b'{"type":"step","step_index":2,"step_name":"b","confidence":0.9}\n'
        b'{"type":"step","step_index":0,"step_name":"c","confidence":0.9}\n'
        b'{"type":"tool_call","tool_name":"t","state":"PARTIAL","latency_ms":142.5,"timestamp":3}\n'
        b'{"type":"tool_call","tool_name":"t","state":"SUCCESS","latency_ms":1e308,"timestamp":9}\n'
        b'{"type":"output","category":"c1","session_id":"w","timestamp":4,"quality_signal":0.88}\n'
        b'{"type":"output","category":"c2","session_id":"w","timestamp":5}\n'
        b'{"type":"attribution","feature_names":["transaction_velocity","device_age_days",'
        b'"geography_risk_score"],"claimed_weights":[0.05,0.05,0.05],"decision_value":0.7}\n'
        b'{"type":"request_pair","text_a":"can alice open the vault","text_b":"alice vault",'
        b'"decision_a":"allow","decision_b":"deny"}\n'
        b'not json\n\xff\xfe\n{"type":"nope"}\n\n'
    )
runs = []
for scenario, variants in SCENARIO_VARIANTS.items():
    for variant in variants:
        trace = os.path.join(work, f"{scenario}-{variant}.jsonl")
        runs.append(["simulate", "--scenario", scenario, "--variant", variant, "--seed", "42",
                     "--output", trace])
        runs.append(["evaluate", "--input", trace, "--output", trace + ".json"])
runs.append(["evaluate", "--input", small, "--output", small + ".json"])
runs.append(["evaluate", "--input", small, "--output", small + ".strict.json", "--strict"])
outcomes = []
for argv in runs:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    path = argv[argv.index("--output") + 1]
    written = hashlib.sha256(open(path, "rb").read()).hexdigest() if os.path.exists(path) else None
    text = re.sub(r" \(\d+\.\d\d ms\)$", "", stderr.getvalue(), flags=re.M)
    outcomes.append([" ".join(argv).replace(work, ""), code, written, text])
print(json.dumps(outcomes))
"""

VERSIONS = [f"python3.{minor}" for minor in range(10, 15)]


def outcomes(executable: str, work: Path) -> list:
    work.mkdir()
    done = subprocess.run([executable, "-I", "-B", "-c", CHILD, str(SRC), str(work)],
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def running(tmp_path_factory) -> list:
    return outcomes(sys.executable, tmp_path_factory.mktemp("running") / "work")


@pytest.mark.parametrize("version", VERSIONS)
def test_every_interpreter_gives_the_running_ones_bytes(version, running, tmp_path):
    executable = shutil.which(version)
    if executable is None or subprocess.run([executable, "-c", "pass"], capture_output=True,
                                            timeout=30).returncode:
        pytest.skip(f"{version} is not on PATH or does not start")
    assert outcomes(executable, tmp_path / "work") == running
