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
    "repro.faults",
    "repro.sim",
    "repro.obs",
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
        from repro.hierarchy import HierarchyMaintainer, build_hierarchy

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.clustering.maxmin")
        assert not hasattr(repro.clustering, "maxmin_cluster")
        assert "maxmin_cluster" not in repro.clustering.__all__
        for fn in (build_hierarchy, HierarchyMaintainer):
            params = inspect.signature(fn).parameters
            assert not {"algorithm", "clustering", "maxmin_d"} & set(params), fn

    def test_one_hierarchy_maintainer(self):
        """Every election mode steps through one maintainer class: the
        stepper module and the persistent-only wrapper are gone."""
        import repro.hierarchy

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.hierarchy.stepper")
        for name in ("hierarchy_stepper", "PersistentHierarchyMaintainer"):
            assert not hasattr(repro.hierarchy, name), name

    def test_one_step_change_record(self):
        """What changed between two consecutive hierarchies is computed
        once per step, by ``diff_hierarchies``: the second change record
        the CHLM patch used to read, and its module, are gone, and the
        handoff engine is handed the step's level-0 link diff instead."""
        from repro.core import HandoffEngine

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.hierarchy.delta")
        for mod in iter_modules():
            listed = set(getattr(mod, "__all__", []))
            assert not {"HierarchyDelta", "compute_delta"} & listed, mod
        params = inspect.signature(HandoffEngine.observe).parameters
        assert "links" in params and "delta" not in params

    def test_lossless_meter(self):
        """The handoff meter charges lossless hops only; the lossy channel
        is one pass in ``repro.faults`` over the report's charge rows, and
        the per-engine send totals no code read are gone."""
        import repro.faults
        from repro.core import HandoffEngine
        from repro.faults import DeliveryEngine

        params = inspect.signature(HandoffEngine.observe).parameters
        assert list(params) == ["self", "h", "hop_fn", "links"]
        assert callable(DeliveryEngine.handoff)
        assert not hasattr(repro.faults, "FaultStats")
        assert "stats" not in inspect.signature(DeliveryEngine).parameters

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
            "results", "metrics"]
        with pytest.raises(SystemExit) as err:
            main(["profile"])
        assert err.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err

    def test_experiments_run_their_grids_through_run_sweep(self):
        """No ``repro.experiments`` module calls ``run_scenario`` inside a
        loop or a comprehension: every grid of runs goes through one
        ``run_sweep`` call, so it gets the worker pool, the result cache
        and the checkpoints."""
        import repro.experiments

        loops = (ast.For, ast.While, ast.ListComp, ast.SetComp,
                 ast.DictComp, ast.GeneratorExp)
        root = Path(repro.experiments.__path__[0])
        offenders = set()
        for path in sorted(root.glob("*.py")):
            for loop in ast.walk(ast.parse(path.read_text())):
                if not isinstance(loop, loops):
                    continue
                for node in ast.walk(loop):
                    if isinstance(node, ast.Call) and "run_scenario" in (
                            getattr(node.func, "id", None),
                            getattr(node.func, "attr", None)):
                        offenders.add(f"{path.stem}:{node.lineno}")
        assert not offenders, sorted(offenders)

    def test_experiments_average_seeds_in_sweep_points(self):
        """No ``repro.experiments`` module loops ``for seed in ...`` in a
        statement: a table builds its per-seed runs, snapshots or records
        in one comprehension and averages them in ``sweep_points``, so
        every seed mean comes from one reducer."""
        import repro.experiments

        root = Path(repro.experiments.__path__[0])
        offenders = [
            f"{path.stem}:{node.lineno}"
            for path in sorted(root.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.For)
            and isinstance(node.target, ast.Name) and node.target.id == "seed"
        ]
        assert not offenders, offenders

    def test_static_networks_are_built_by_static_snapshot(self):
        """The experiments and the CLI build a network frozen at given
        positions only through ``repro.sim.static_snapshot``, which reads
        the radio settings off the scenario."""
        import repro.cli
        import repro.experiments

        builders = {"build_hierarchy", "unit_disk_edges",
                    "disc_for_density", "radius_for_degree"}
        paths = [*sorted(Path(repro.experiments.__path__[0]).glob("*.py")),
                 Path(repro.cli.__file__)]
        offenders = [
            f"{path.stem}:{node.lineno}"
            for path in paths
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Name) and node.id in builders)
            or (isinstance(node, ast.alias) and node.name in builders)
        ]
        assert not offenders, offenders

    def test_experiment_seeds_default_to_the_cli_default(self):
        """Every catalogue ``run`` that takes ``seeds`` defaults to the
        seeds ``repro experiment`` passes when none are given."""
        from repro.cli import build_parser
        from repro.experiments import ALL_EXPERIMENTS

        args = build_parser().parse_args(["experiment", "EXP-T1"])
        cli_seeds = tuple(int(s) for s in args.seeds.split(","))
        wrong = {
            eid: param.default
            for eid, fn in ALL_EXPERIMENTS.items()
            if (param := inspect.signature(fn).parameters.get("seeds"))
            and tuple(param.default) != cli_seeds
        }
        assert not wrong, wrong

    def test_one_run_record(self, capsys):
        """The event trace and the chaos report are ``RunManifest``
        sections: the trace module and its JSONL schema, the engine's
        trace flag and the result field that carried it, and the CLI's
        separate trace and chaos-report files are gone."""
        import dataclasses

        import repro.obs
        import repro.obs.export
        import repro.sim
        import repro.sim.engine
        from repro.cli import main
        from repro.obs import RunManifest
        from repro.sim import Simulator, SimResult

        def fields(cls):
            return {f.name for f in dataclasses.fields(cls)}

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.sim.trace")
        gone = {"EventTrace", "TraceEvent", "trace_records",
                "trace_from_records", "read_jsonl", "TRACE_SCHEMA"}
        for mod in (repro.sim, repro.obs, repro.obs.export):
            assert not gone & (set(mod.__all__) | set(vars(mod))), mod
        assert not hasattr(repro.sim.engine, "TRACE_CAPACITY")
        assert list(inspect.signature(Simulator).parameters) == [
            "scenario", "profile", "collectors"]
        assert "trace" not in fields(SimResult)
        assert {"trace", "chaos"} <= fields(RunManifest)
        for flag in ("--trace-jsonl", "--chaos-report"):
            with pytest.raises(SystemExit) as err:
                main(["simulate", flag, "x"])
            assert err.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_the_simulator_is_its_own_checkpoint(self):
        """A checkpoint is the pickled ``Simulator`` behind a derived code
        stamp: the checkpoint module, its container, its reader and
        writer and its hand-bumped schema number are gone, as are the
        exact-hop and link-event helpers only tests called."""
        import repro.sim

        for gone in ("repro.sim.checkpoint", "repro.routing.flat"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(gone)
        names = {"SimCheckpoint", "save_checkpoint", "load_checkpoint",
                 "CHECKPOINT_SCHEMA", "FlatRouter", "LinkTracker"}
        for mod in iter_modules():
            exported = set(getattr(mod, "__all__", ())) | set(vars(mod))
            assert not names & exported, mod.__name__
        assert list(inspect.signature(repro.sim.Simulator.checkpoint)
                    .parameters) == ["self", "path"]


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
