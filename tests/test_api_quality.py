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

THEORY_CLOSED_FORMS = frozenset({
    "f_k_prediction", "phi_k_prediction", "gamma_k_prediction",
    "g_prime_k_prediction", "edges_per_node_prediction", "hop_count_level",
    "hop_count_network", "migration_distance",
})
"""The paper's closed forms in ``repro.analysis.theory`` that no run
calls yet; they stay exported until the experiments print predicted
beside measured values."""

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


def referenced_names(root: Path) -> set[str]:
    """Names the code under ``src/``, ``examples/`` and ``benchmarks/``
    uses: every attribute read, and every bare name that its file binds
    by ``from … import`` or at module level.  Imports, ``__all__``
    strings and definitions are not uses, and neither is a use inside
    the body of the function or class that defines the name."""
    used: set[str] = set()
    for top in ("src", "examples", "benchmarks"):
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            bound = {n.name for n in tree.body
                     if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            bound |= {t.id for n in tree.body if isinstance(n, ast.Assign)
                      for t in n.targets if isinstance(t, ast.Name)}
            own_bodies = []
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    bound |= {a.asname or a.name for a in node.names}
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef)):
                    own_bodies.append((node.name, node.lineno, node.end_lineno))
            for node in ast.walk(tree):
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue
                if isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Name) and node.id in bound:
                    name = node.id
                else:
                    continue
                if not any(name == def_name and first <= node.lineno <= last
                           for def_name, first, last in own_bodies):
                    used.add(name)
    return used


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
    def test_every_export_has_a_caller(self):
        """An exported name is used by the library, an example or a
        benchmark, not only by its tests; oracles a test needs live
        under ``tests/``."""
        used = referenced_names(Path(repro.__file__).resolve().parents[2])
        uncalled = set()
        for mod in iter_modules():
            if mod.__name__ == "repro":
                continue  # the root lists subpackages, loaded lazily
            for name in getattr(mod, "__all__", []):
                if name not in used:
                    home = getattr(getattr(mod, name), "__module__", mod.__name__)
                    uncalled.add(f"{home}.{name}")
        # Equality, so a closed form that gains a caller leaves the list.
        assert uncalled == {
            f"repro.analysis.theory.{name}" for name in THEORY_CLOSED_FORMS}

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

    def test_one_way_to_inject_faults(self):
        """Faults are injected only through ``Scenario.chaos``: the legacy
        crash fields, the episode-tuple wrapper, the per-episode RNG
        stream choice and the fault settings no run set are gone."""
        import dataclasses

        import repro.faults
        from repro.faults import (
            ChaosEngine, CrashEpisode, DeliveryEngine, LossModel, RetryPolicy,
        )
        from repro.sim import Scenario

        def fields(cls):
            return tuple(f.name for f in dataclasses.fields(cls))

        assert not {"failure_rate", "repair_time"} & set(fields(Scenario))
        assert "stream" not in fields(CrashEpisode)
        assert not hasattr(repro.faults, "FaultSchedule")
        assert "FaultSchedule" not in repro.faults.__all__
        assert fields(LossModel) == ("rate",)
        assert fields(RetryPolicy) == ("max_attempts", "timeout")
        assert list(inspect.signature(ChaosEngine).parameters) == [
            "n", "episodes", "rng"]
        assert list(inspect.signature(DeliveryEngine.send).parameters) == [
            "self", "hops"]

    def test_one_sweep_command_and_one_run_record(self, capsys):
        """``run_sweep`` is the one sweep entry point (``sweep_points``
        only aggregates its results), ``repro sweep`` the one sweep
        command, and ``RunManifest`` the one per-run record: the JSON
        artifact module, the wrapper sweep, the counter record and the
        ``profile`` subcommand are gone."""
        import repro.obs
        from repro.cli import main
        from repro.sim import sweep_points

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.persist")
        gone = {"cached_sweep", "result_counters", "save_sweep", "load_sweep"}
        obs_modules = [repro.obs] + [
            importlib.import_module(f"repro.obs.{info.name}")
            for info in pkgutil.iter_modules(repro.obs.__path__)]
        for mod in [*iter_modules(), *obs_modules]:
            exported = set(getattr(mod, "__all__", ())) | set(vars(mod))
            assert not gone & exported, mod.__name__
        assert list(inspect.signature(sweep_points).parameters) == [
            "results", "metrics", "keep_results"]
        with pytest.raises(SystemExit) as err:
            main(["profile"])
        assert err.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err


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
