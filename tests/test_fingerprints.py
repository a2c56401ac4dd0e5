"""The same seed gives the same bytes: every pipeline's outputs against
the digests committed in ``tests/fingerprints.json``.

The digests depend on numpy and the machine as well as on the code, so
on an environment other than the recorded one the test skips and says
which. ``scripts/fingerprints.py --write`` regenerates the file when a
change alters the outputs on purpose.
"""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "fingerprints.py"


def _script():
    spec = importlib.util.spec_from_file_location("fingerprints", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_committed_fingerprints(tmp_path):
    fp = _script()
    committed = json.loads(fp.FILE.read_text())
    here = fp.environment()
    if committed["environment"] != here:
        pytest.skip(f"fingerprints were recorded on {committed['environment']}, "
                    f"this is {here}")
    changed = fp.differences(committed["digests"], fp.digests(tmp_path))
    assert changed == [], "outputs differ from tests/fingerprints.json: " + ", ".join(changed)


def test_differences_name_each_changed_file():
    fp = _script()
    old = {"a": {"x.csv": "1", "y.csv": "2"}, "b": {"x.csv": "3"}}
    new = {"a": {"x.csv": "1", "y.csv": "9"}, "c": {"x.csv": "3"}}
    assert fp.differences(old, new) == ["a y.csv", "b x.csv", "c x.csv"]
