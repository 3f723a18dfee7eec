"""What a run imports: the module graph behind each entry point, pinned.

Figure 4 needs no consensus, so a Figure 4 process loads neither the PBFT
baseline nor the Figures 1–3 shared-memory runtime, and a cluster process
loads neither of them nor a worker pool or profiler it does not use.  Three
rules keep it so: a package ``__init__`` re-exports nothing (import from the
defining module), the process backend imports ``multiprocessing`` when it is
constructed, and no ``repro`` module is imported inside a function
(``TestTheFoldIsOffTheRunPath`` patches every binding in ``sys.modules`` and
relies on a static graph).  Neither is the pool's tooling: the codec imports
``pickle`` inside ``encode`` / ``decode`` and the worker loop imports
``traceback`` only in its error reply, so a serial run loads neither.  Each
graph is read in a fresh child interpreter, since this one has imported
everything.
"""

import ast
import os
import pathlib
import subprocess
import sys
from typing import List, Set

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

FIGURE_4_NEVER = ("repro.bft", "repro.shared_memory", "repro.cluster", "repro.obs", "repro.eval")
CLUSTER_NEVER = ("repro.bft", "repro.shared_memory", "repro.eval")
POOLS = ("multiprocessing", "concurrent.futures")
# What only the pool's pipe uses: the codec's pickle, the worker's error reply.
POOL_TOOLING = ("pickle", "traceback")
PROFILERS = ("cProfile", "pstats", "_lsprof")


def _loaded(*steps: str) -> List[Set[str]]:
    """The modules a fresh interpreter holds after each of ``steps``, in order."""
    code = "import sys\n" + "".join(f"{step}\nprint(*sys.modules)\n" for step in steps)
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert child.returncode == 0, child.stderr
    return [set(line.split()) for line in child.stdout.splitlines()]


def _under(modules: Set[str], *packages: str) -> List[str]:
    return sorted(
        name for name in modules for package in packages
        if name == package or name.startswith(package + ".")
    )


def test_figure_4_loads_no_consensus_shared_memory_cluster_or_harness():
    (loaded,) = _loaded("import repro.mp.system")
    assert "repro.mp.system" in loaded
    assert _under(loaded, *FIGURE_4_NEVER) == []


def test_the_cluster_loads_no_consensus_shared_memory_harness_or_pool():
    (loaded,) = _loaded("import repro.cluster.system")
    assert "repro.cluster.system" in loaded
    assert _under(loaded, *CLUSTER_NEVER) == []
    assert _under(loaded, *POOLS) == []


def test_a_serial_run_never_loads_a_pool():
    imported, ran = _loaded(
        "from repro.cluster.system import ClusterSystem\n"
        "from repro.workloads.cluster_driver import ClusterWorkloadConfig, "
        "cluster_open_loop_workload",
        "system = ClusterSystem(shard_count=2, backend='serial')\n"
        "system.schedule_submissions(cluster_open_loop_workload(ClusterWorkloadConfig("
        "user_count=100, aggregate_rate=2000.0, duration=0.01, cross_shard_fraction=0.5, "
        "router=system.router, seed=1)))\n"
        "system.run().fingerprint(); system.check_definition1(); system.close()",
    )
    assert _under(imported, *POOLS) == _under(ran, *POOLS) == []
    # Nor its tooling: the codec is imported, but nothing is framed.
    assert "repro.cluster.codec" in imported
    assert _under(imported, *POOL_TOOLING) == _under(ran, *POOL_TOOLING) == []
    # The library carries no profiler; perf/ brings its own.
    assert _under(ran, *PROFILERS) == []


def test_a_pool_is_loaded_when_its_backend_is_constructed():
    imported, constructed = _loaded(
        "from repro.cluster.system import ClusterSystem",
        "system = ClusterSystem(shard_count=2, backend='process')",
    )
    assert _under(imported, *POOLS) == []
    assert {"multiprocessing", "multiprocessing.connection"} <= constructed


def _imports(node) -> List[str]:
    """The module names an ``import`` statement node names (else none)."""
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return []


def test_no_repro_module_is_imported_inside_a_function():
    lazy = []
    for path in sorted(pathlib.Path(SRC, "repro").rglob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                names = _imports(node)
                if any(name == "repro" or name.startswith("repro.") for name in names):
                    lazy.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert lazy == []


# The top-level package and the two leaf utilities keep their re-exports.
REEXPORTING_INITS = ("repro/__init__.py", "repro/common/__init__.py", "repro/obs/__init__.py")


def test_no_package_init_imports_anything_but_the_named_exceptions():
    """A package ``__init__`` is a module-map docstring: importing
    ``repro.cluster.system`` must not load the rest of ``repro.cluster``."""
    importing = sorted(
        str(path.relative_to(SRC))
        for path in pathlib.Path(SRC, "repro").rglob("__init__.py")
        if any(_imports(node) for node in ast.walk(ast.parse(path.read_text())))
    )
    assert importing == sorted(REEXPORTING_INITS)


def test_no_repro_module_imports_a_profiler():
    """Not on the serial path only: no module anywhere in the library, pool
    workers and the harness included, imports a profiler."""
    profiling = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(pathlib.Path(SRC, "repro").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _under(set(_imports(node)), *PROFILERS)
    ]
    assert profiling == []
