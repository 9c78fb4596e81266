"""Import-weight guards: what a process loads to serve or route.

Each check imports one entry point in a fresh interpreter and lists
``sys.modules``.  The router process must stay free of the serving and
model stack (``repro.serve``'s package import alone pulls in the model),
and the serving package must not load the stdlib threaded HTTP server.
A serving process (``repro.serve``'s CLI or a fleet replica) that
restores, predicts and scores a title loads no scipy: only fitting and
significance testing need it.  It must also keep glibc's heap defaults:
only a process that runs ``backward()`` applies the training heap
settings, once.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout


def _modules_after(statement: str) -> set:
    return set(json.loads(_run(
        f"import json, sys; {statement}; print(json.dumps(list(sys.modules)))")))


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


def test_serving_process_keeps_default_heap_settings(tiny_dataset, tmp_path):
    from repro.core import CATEHGN
    from repro.eval.runner import default_cate_config

    config = default_cate_config(dim=8, seed=0, outer_iters=1, mini_iters=1)
    path = CATEHGN(config).fit(tiny_dataset).save_checkpoint(tmp_path / "m")
    applied, scipy_modules = _run(
        "import json, sys\n"
        "import repro.fleet.replica, repro.serve.__main__\n"
        "from repro.serve import InferenceEngine\n"
        "from repro.tensor import GradMode\n"
        f"engine = InferenceEngine.from_checkpoint({str(path)!r})\n"
        "engine.predict([0, 1, 2])\n"
        "engine.score_title('heterogeneous graph citation')\n"
        "print(GradMode.heap_settings_applied)\n"
        "print(json.dumps([m for m in sys.modules\n"
        "                  if m == 'scipy' or m.startswith('scipy.')]))\n"
    ).splitlines()
    assert applied == "0"
    assert json.loads(scipy_modules) == []


def test_first_backward_applies_heap_settings_once():
    before, after, has_mallopt = _run(
        "import ctypes\n"
        "from repro.tensor import GradMode, Tensor\n"
        "before = GradMode.heap_settings_applied\n"
        "x = Tensor([1.0], requires_grad=True)\n"
        "(x * x).sum().backward()\n"
        "(x * 3.0).sum().backward()\n"
        "print(before, GradMode.heap_settings_applied,\n"
        "      hasattr(ctypes.CDLL(None), 'mallopt'))\n").split()
    assert before == "0"
    assert after == ("1" if has_mallopt == "True" else "0")
