"""Import-weight guards: what a process loads to serve or route.

Each check imports one entry point in a fresh interpreter and lists
``sys.modules``.  The router process must stay free of the serving and
model stack (``repro.serve``'s package import alone pulls in the model
and scipy), and the serving package must not load the stdlib threaded
HTTP server.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules_after(statement: str) -> set:
    code = f"import json, sys; {statement}; print(json.dumps(list(sys.modules)))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return set(json.loads(out.stdout))


def _loaded(modules: set, package: str) -> list:
    return sorted(m for m in modules
                  if m == package or m.startswith(package + "."))


def test_router_imports_no_serving_or_model_stack():
    modules = _modules_after("import repro.fleet.router")
    for package in ("repro.serve", "repro.core", "scipy"):
        assert not _loaded(modules, package), package


def test_serving_package_imports_no_threaded_http_server():
    modules = _modules_after("import repro.serve")
    assert "http.server" not in modules
