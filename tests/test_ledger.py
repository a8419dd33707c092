"""Every pinned run writes the files that the golden ledger records, byte for byte.

The ledger (``tests/golden/``, see ``tests/ledger.py``) is recorded in one
environment.  In another (Python minor version, numpy version) a run may
differ in the last bits of a float without a fault, so there each test
skips and names both environments.
"""

import json

import pytest

from ledger import LEDGER, REWRITE, RUNS, differences, entry, environment, workdir


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return workdir(tmp_path_factory.mktemp("ledger"))


def _described(env: dict) -> str:
    return f"Python {env['python']}, numpy {env['numpy']}"


@pytest.mark.parametrize("name", RUNS)
def test_run_writes_the_recorded_files(name, work):
    recorded = json.loads((LEDGER / f"{name}.json").read_text(encoding="utf-8"))
    if recorded["environment"] != environment():
        pytest.skip(f"the ledger was recorded on {_described(recorded['environment'])}; "
                    f"this is {_described(environment())}")
    actual = entry(work, name)
    assert {k: actual[k] for k in ("command", "configs")} == {k: recorded[k] for k in ("command", "configs")}, (
        f"run {name} is not the recorded run; rewrite the ledger with {REWRITE}")
    changed = differences(work / name, recorded["files"], actual["files"])
    assert not changed, (f"run {name} ({' '.join(actual['command'])}) changed {len(changed)} file(s):\n  "
                         + "\n  ".join(changed) + f"\nAfter an intended change, rewrite the ledger with {REWRITE}")
