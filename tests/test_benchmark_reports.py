"""The benchmark's workloads, generated by perfbench/tracegen.py at the sizes
perfbench/run.py runs them, keep their exit codes and report bytes at
seeds 1-4."""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from evalgate import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402
import tracegen  # noqa: E402

# (workload, seed): exit code and report sha256, recorded before TOOL's
# calls per state had one source
PINNED = {
    ("ingest", 1): (0, "7e06d58fee5f70f6ba3a14cd4cdc30ff3d4279cd7a172ba63098298a10888a45"),
    ("ingest", 2): (0, "f7d20222625e80d21d467953c7e4d9468ae34386230bc24e1ebeb51b5e69008c"),
    ("ingest", 3): (0, "5662892cb99c045b3a9394b3788faca9328ff63b8fa1e7878bb58a28b397117b"),
    ("ingest", 4): (0, "1bac691b93adf685a1bdfacdfad19ce37e928737174081c79c8f594a543cde6a"),
    ("semantic", 1): (1, "d3c747b210b97db6682fa01c1f5e1d313ed6272f241fc15f26967d920caf6e37"),
    ("semantic", 2): (1, "3ddbbfc6d98bd1b9ee857feb94816e65d89a14af3d4e481decaff287c919d944"),
    ("semantic", 3): (1, "009050b7a35a509cfe52cb8579c541f630e1bf1a6fac345b9c6bc5db88ae0307"),
    ("semantic", 4): (1, "037361dc3658c91f3d5edaab96e625a78d16d65deadd036528e456825f2cf902"),
    ("noisy-all5", 1): (1, "0bb37322fe189536ed9123c22fa12bbf333ecf11068d2642bc9b7136d7422689"),
    ("noisy-all5", 2): (1, "1dd362abf071d51dc248323cd620c443fd9aca1e4a75f47c2ae5e6d75b0dc00a"),
    ("noisy-all5", 3): (1, "3f41796b326c331ac84486fc3f08efdeef7501460a20a7a4be82e6e66d1250bc"),
    ("noisy-all5", 4): (1, "f9de8d9336ed6d90059437c2c4aa823c8cb15b1572a5847162f7631620f65043"),
}


@pytest.mark.parametrize("workload, seed", PINNED)
def test_workload_report_bytes_are_pinned(tmp_path, capsys, workload, seed):
    prefix = tmp_path / workload
    tracegen.write(tracegen.generate(workload, seed, run.WORKLOAD_LINES[workload]), prefix)
    report = prefix.with_suffix(".report.json")
    argv = ["evaluate", "--input", str(prefix.with_suffix(".jsonl")), "--output", str(report)]
    if prefix.with_suffix(".config.json").exists():
        argv += ["--config", str(prefix.with_suffix(".config.json"))]
    code = cli.main(argv)
    capsys.readouterr()
    assert (code, hashlib.sha256(report.read_bytes()).hexdigest()) == PINNED[workload, seed]
