"""The package reports the version it is installed as."""

import pathlib
import re

import repro

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_matches_pyproject():
    # A regex, not tomllib: tomllib is 3.11+ and 3.10 is the supported floor.
    match = re.search(r'^version\s*=\s*"([^"]+)"', PYPROJECT.read_text(), re.MULTILINE)
    assert match is not None, "pyproject.toml declares no version"
    assert repro.__version__ == match.group(1)
