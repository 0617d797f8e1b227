"""Import layering: a module loads only when something uses it.

Package exports are lazy (PEP 562), the CLI imports inside each
subcommand, and the sweep entry modules import what their sweeps call
at module level. Each check runs in a fresh interpreter, since the test
process has long since imported everything.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def _run(args, code=None):
    """Run ``python <args>`` from a clean environment; its stdout/stderr."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    argv = [sys.executable, *args] + (["-c", code] if code else [])
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


def _imported(*args, code=None):
    """Every module a command imports, read from ``-X importtime``."""
    _, err = _run(["-X", "importtime", *args], code)
    return {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
            if line.startswith("import time:") and "|" in line
            and not line.rstrip().endswith("imported package")}


def _repro(modules):
    return sorted(m for m in modules
                  if m == "repro" or m.startswith("repro."))


def _packages():
    names = ["repro"] + [f"repro.{info.name}" for info in
                         pkgutil.iter_modules(repro.__path__) if info.ispkg]
    return [importlib.import_module(name) for name in names]


class TestImportDiet:
    def test_import_repro_loads_only_the_package(self):
        modules = _imported(code="import repro")
        assert _repro(modules) == ["repro"]
        assert "numpy" not in modules

    def test_dse_loads_no_serving_stack(self):
        modules = _repro(_imported(code="import repro, repro.core.dse"))
        assert "repro.core.dse" in modules
        unused = ("serving", "cluster", "pod", "faults", "tco", "runtime",
                  "mlcompat", "numerics")
        assert [m for m in modules
                if m.split(".")[1:2] and m.split(".")[1] in unused] == []
        assert len(modules) <= 50

    @pytest.mark.parametrize("command", ["chips", "apps"])
    def test_listing_commands_load_no_compiler_or_numpy(self, command):
        modules = _imported("-m", "repro", command)
        assert "repro.cli" in modules
        for heavy in ("numpy", "repro.compiler", "repro.sim"):
            assert heavy not in modules


class TestLazyExports:
    def test_every_export_is_its_defining_modules_object(self):
        for package in _packages():
            names = [n for n in package.__all__ if n != "__version__"]
            values = {name: getattr(package, name) for name in names}
            holders = [m for name, m in list(sys.modules.items())
                       if name.startswith(package.__name__ + ".")
                       and not hasattr(m, "__path__")]
            for name, value in values.items():
                assert name in dir(package)
                assert vars(package)[name] is value, "resolved names cached"
                assert any(vars(m).get(name) is value for m in holders), \
                    f"{package.__name__}.{name}"

    def test_star_import(self):
        # A star import resolves every name in ``__all__``, so a name the
        # export map declares but its module lacks fails here.
        for package in _packages():
            namespace = {}
            exec(f"from {package.__name__} import *", namespace)
            assert set(package.__all__) <= set(namespace), package.__name__
            assert len(set(package.__all__)) == len(package.__all__)
            for name in package.__all__:
                assert namespace[name] is getattr(package, name)

    def test_subpackages_resolve_after_bare_import(self):
        out, _ = _run([], code=(
            "import repro; print(repro.core.dse.__name__, "
            "repro.sim.TensorCoreSim.__name__)"))
        assert out.split() == ["repro.core.dse", "TensorCoreSim"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            getattr(repro.core, "nope")

    def test_obs_metrics_is_the_function(self):
        # The submodule loads first here (the engine cache imports it),
        # which binds ``repro.obs.metrics`` to the module unless the
        # package rebinds it.
        out, _ = _run([], code=(
            "import repro.engine.cache\n"
            "import repro.obs\n"
            "from repro.obs import metrics\n"
            "print(callable(metrics), type(metrics).__name__)"))
        assert out.split() == ["True", "function"]


_FIRST_CALL = """
import json, sys
{setup}
before = set(sys.modules)
{call}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


class TestFirstCallImportsNothing:
    @pytest.mark.parametrize("setup, call", [
        ("import repro.core.dse as dse\n"
         "chips = dse.enumerate_candidates((4,), (0, 128))",
         "dse.evaluate_candidates(chips, ('cnn0', 'bert0'))"),
        ("import repro.cluster.sweep as sweep",
         "sweep.chaos_sweep(0, apps=('cnn0',), duration_s=0.1)"),
    ], ids=["dse", "serve-chaos"])
    def test_sweep_call_loads_no_repro_module(self, setup, call):
        out, _ = _run([], code=_FIRST_CALL.format(setup=setup, call=call))
        assert _repro(json.loads(out)) == []
