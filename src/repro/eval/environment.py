"""Environment provenance for benchmark reports.

A benchmark number without the machine and revision it came from cannot be
trusted later.  :func:`environment_meta` captures the minimum provenance
block — interpreter, host platform, core count, and the repository revision
as ``git describe`` reports it (``None`` when git or the repository is
unavailable, as in an export tarball) — which ``benchmarks/bench_trace.py``
attaches to its pytest-benchmark report.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional


def git_describe(cwd: Optional[str] = None) -> Optional[str]:
    """``git describe --always --dirty`` of the repository, or ``None``.

    ``--always`` falls back to the abbreviated commit hash before any tag
    exists; ``--dirty`` marks uncommitted benchmark runs, which matters when
    reading a trajectory point against the history.
    """
    try:
        output = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd or str(Path(__file__).resolve().parent),
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    described = output.stdout.strip()
    return described if output.returncode == 0 and described else None


def environment_meta() -> Dict[str, object]:
    """The provenance block of a benchmark report."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "executable": sys.executable,
        "git_describe": git_describe(),
    }
