"""API quality gates: documentation coverage and import hygiene."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.geometry",
    "repro.mobility",
    "repro.radio",
    "repro.clustering",
    "repro.hierarchy",
    "repro.routing",
    "repro.gls",
    "repro.core",
    "repro.sim",
    "repro.analysis",
    "repro.experiments",
    "repro.viz",
]


def iter_modules():
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                yield importlib.import_module(f"{pkg_name}.{info.name}")


class TestDocumentation:
    def test_every_module_documented(self):
        undocumented = [
            m.__name__ for m in iter_modules() if not (m.__doc__ or "").strip()
        ]
        assert not undocumented, undocumented

    def test_public_symbols_documented(self):
        """Everything exported via __all__ carries a docstring."""
        missing = []
        for mod in iter_modules():
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name, None)
                if obj is None or isinstance(obj, types.ModuleType):
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not (inspect.getdoc(obj) or "").strip():
                        missing.append(f"{mod.__name__}.{name}")
        assert not missing, missing

    def test_public_methods_documented(self):
        """Public methods of exported classes carry docstrings."""
        missing = []
        for mod in iter_modules():
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name, None)
                if obj is None or not inspect.isclass(obj):
                    continue
                for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
                    if meth_name.startswith("_"):
                        continue
                    if meth.__qualname__.split(".")[0] != obj.__name__:
                        continue  # inherited
                    if not (inspect.getdoc(meth) or "").strip():
                        missing.append(f"{mod.__name__}.{name}.{meth_name}")
        assert not missing, missing


class TestExports:
    def test_all_lists_resolve(self):
        for mod in iter_modules():
            if mod.__name__ == "repro":
                continue  # the root lists subpackages, loaded lazily
            for name in getattr(mod, "__all__", []):
                assert hasattr(mod, name), f"{mod.__name__}.__all__ lists {name}"

    def test_subpackage_list_accurate(self):
        for name in repro.__all__:
            importlib.import_module(f"repro.{name}")

    def test_service_tier_is_gone(self):
        """The open-loop service front-end was retired whole."""
        assert "service" not in repro.__all__
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.service")

    def test_second_step_loop_is_gone(self):
        """The simulator is the one step loop of the stack: the messaging
        layer that re-implemented it, and the map that fanned that copy
        out, were deleted."""
        import repro.sim

        assert "app" not in repro.__all__
        assert "repro.app" not in PACKAGES
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.app")
        assert not hasattr(repro.sim, "parallel_map")
        assert "parallel_map" not in repro.sim.__all__

    def test_one_clustering_algorithm(self):
        """Every hierarchy is elected with ALCA: max-min clustering and
        the parameters that chose it are gone."""
        import repro.clustering
        from repro.hierarchy import build_hierarchy
        from repro.hierarchy.stepper import hierarchy_stepper

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.clustering.maxmin")
        assert not hasattr(repro.clustering, "maxmin_cluster")
        assert "maxmin_cluster" not in repro.clustering.__all__
        for fn in (build_hierarchy, hierarchy_stepper):
            params = inspect.signature(fn).parameters
            assert not {"algorithm", "clustering", "maxmin_d"} & set(params), fn

    def test_one_run_path_hash(self):
        """The handoff meter and the query resolvers hash with rendezvous
        only; the naive hash is reached through ``full_assignment``."""
        from repro.core import BatchResolver, HandoffEngine, resolve_batch

        for fn in (HandoffEngine, BatchResolver, resolve_batch):
            assert "hash_fn" not in inspect.signature(fn).parameters, fn


class TestLayering:
    def test_analysis_does_not_import_the_simulator(self):
        """``repro.analysis`` is theory/fitting/report; the sweep runner
        and its ``SweepPoint`` live in ``repro.sim``, which may import
        analysis but not the reverse.  Needs a fresh interpreter: this
        process has long since imported ``repro.sim``."""
        code = (
            "import sys, repro.analysis; "
            "bad = sorted(m for m in sys.modules if m.startswith('repro.sim')); "
            "assert not bad, bad"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": src})

    def test_no_module_imports_networkx(self):
        """Graph work runs on ``CompactGraph`` and scipy; networkx is a
        test oracle only, so no module under ``src/repro`` may import it,
        not even lazily inside a function."""
        pkg = Path(repro.__file__).resolve().parent
        bad = []
        for path in sorted(pkg.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                if any(n.split(".")[0] == "networkx" for n in names):
                    bad.append(f"{path.relative_to(pkg)}:{node.lineno}")
        assert not bad, bad

    def test_runtime_dependencies_are_numpy_and_scipy(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(repro.__file__).resolve().parents[2]
        with open(root / "pyproject.toml", "rb") as f:
            deps = tomllib.load(f)["project"]["dependencies"]
        names = sorted(re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0] for d in deps)
        assert names == ["numpy", "scipy"]


class TestGoldenDeterminism:
    """Seeded regression pin: if refactors change simulation semantics,
    this fails loudly so EXPERIMENTS.md numbers get re-derived."""

    def test_reference_run_metrics(self):
        from repro.sim import Scenario, run_scenario

        res = run_scenario(
            Scenario(n=100, steps=10, warmup=5, speed=1.0, seed=2024,
                     hop_mode="euclidean", max_levels=3,
                     hop_sample_every=10_000),
        )
        # Pinned from the reference implementation; loose enough for
        # benign float reorderings, tight enough to catch semantic drift.
        assert res.f0 == pytest.approx(1.530, rel=0.02)
        assert res.phi == pytest.approx(0.456, rel=0.05)
        assert res.gamma == pytest.approx(1.726, rel=0.05)
