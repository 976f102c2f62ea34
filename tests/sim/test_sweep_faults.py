"""Crash, timeout, and retry tests for the fault-tolerant sweep runner.

The crash, timeout and retry cases drive the runner's task executor
(``repro.sim.sweep._execute``) with fake task functions.  They live at
module level so ``ProcessPoolExecutor`` can pickle them by qualified
name; the crash tests genuinely SIGKILL the worker process, exercising
the ``BrokenProcessPool`` path end to end.
"""

import os
import signal
import time

import pytest

from repro.sim import (
    Scenario,
    SweepError,
    SweepRun,
    TaskError,
    expand_grid,
    run_sweep,
)
from repro.sim.sweep import _execute

GOOD = Scenario(n=60, steps=3, warmup=1, speed=1.5, hop_mode="euclidean",
                max_levels=2, hop_sample_every=4)
BAD = Scenario(n=60, steps=3, warmup=1, mobility_kwargs={"pause": -1.0},
               max_levels=2, hop_sample_every=4)
"""Constructs fine (``mobility_kwargs`` go to the model unchecked) but
raises inside the worker at model build time."""


@pytest.fixture(autouse=True)
def _no_retry_sleep(monkeypatch):
    """Retry rounds back off by ``RETRY_BACKOFF`` seconds; these tests
    retry on purpose, so they do it without sleeping."""
    import repro.sim.sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "RETRY_BACKOFF", 0.0)


def execute(fn, items, *, workers, task_timeout=None, task_retries=1):
    """Run ``fn`` over ``items`` through the sweep's task executor;
    returns ``(results, errors)`` with ``None`` at failed positions and
    ``errors`` as ``{index: (kind, message, attempts)}``."""
    results = [None] * len(items)

    def on_result(i, res, attempts):
        results[i] = res

    errors = _execute(fn, dict(enumerate(items)), workers=workers,
                      task_timeout=task_timeout, task_retries=task_retries,
                      on_result=on_result)
    return results, errors


def _inc(x):
    return x + 1


def _boom(x):
    raise ValueError(f"bad item {x}")


def _die_once(path):
    """SIGKILL the worker on first call; succeed once the sentinel exists."""
    if not os.path.exists(path):
        open(path, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


def _die_always(_x):
    os.kill(os.getpid(), signal.SIGKILL)


def _hang(_x):
    time.sleep(600)


def _report_pid_then_finish(outdir):
    """Drop a pid marker, simulate work, then drop a completion marker.

    A worker that survives an interrupt untreated finishes the "work"
    and writes the ``.done`` file; a terminated one never does."""
    base = os.path.join(outdir, str(os.getpid()))
    open(base + ".pid", "w").close()
    time.sleep(2.0)
    open(base + ".done", "w").close()
    return "finished"


class TestCrashRecovery:
    def test_killed_worker_is_retried_and_succeeds(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        out, errors = execute(_die_once, [sentinel], workers=2, task_retries=1)
        assert out == ["survived"] and errors == {}

    def test_killed_worker_yields_partial_results_and_error_record(self):
        out, errors = execute(_die_always, [7], workers=2, task_retries=1)
        assert out == [None]
        ((index, (kind, message, attempts)),) = errors.items()
        assert kind == "crash"
        assert index == 0
        assert attempts == 2  # first try + one retry
        assert "died" in message or "broke" in message

    def test_partial_mode_returns_none_holes(self):
        out, errors = execute(_die_always, [7], workers=2, task_retries=0)
        assert out == [None] and list(errors) == [0]


class TestTimeout:
    def test_hung_worker_times_out_with_record(self):
        _, errors = execute(_hang, [None], workers=2, task_timeout=0.5,
                            task_retries=0)
        ((kind, message, _),) = errors.values()
        assert kind == "timeout"
        assert "task_timeout" in message


class TestInterruptTeardown:
    def test_keyboard_interrupt_terminates_workers(self, tmp_path,
                                                   monkeypatch):
        """Regression: Ctrl-C used to tear down workers only in the
        timeout branch; any other exit left them running their tasks as
        orphans.  An interrupt mid-round must kill every live worker."""
        import repro.sim.sweep as sweep_mod

        def interrupting_wait(pending, timeout=None, return_when=None):
            # Let both workers start (pid markers appear), then act as
            # if the user hit Ctrl-C while the round was in flight.
            deadline = time.monotonic() + 30.0
            while len(list(tmp_path.glob("*.pid"))) < 2:
                if time.monotonic() > deadline:  # pragma: no cover
                    raise AssertionError("workers never started")
                time.sleep(0.02)
            raise KeyboardInterrupt

        monkeypatch.setattr(sweep_mod, "wait", interrupting_wait)
        with pytest.raises(KeyboardInterrupt):
            sweep_mod._parallel_round(
                _report_pid_then_finish,
                {0: str(tmp_path), 1: str(tmp_path)},
                2, None, lambda i, res: None)
        # Terminated workers die inside the sleep and never write the
        # completion marker; orphans would write it ~2s after starting.
        time.sleep(2.5)
        assert len(list(tmp_path.glob("*.pid"))) == 2
        assert list(tmp_path.glob("*.done")) == []


class TestExceptionRetries:
    def test_attempts_bounded_and_counted(self):
        _, errors = execute(_boom, [1], workers=0, task_retries=2)
        ((kind, message, attempts),) = errors.values()
        assert kind == "exception"
        assert attempts == 3  # 1 + task_retries
        assert "bad item 1" in message

    def test_healthy_items_unaffected_by_failures(self):
        out, errors = execute(_inc, [1, 2, 3], workers=0, task_retries=0)
        assert out == [2, 3, 4] and errors == {}
        out, errors = execute(_boom, [1, 2], workers=0, task_retries=0)
        assert out == [None, None] and sorted(errors) == [0, 1]

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([GOOD], task_retries=-1)


class TestRunControlValidation:
    """Bad run-control arguments fail at the call, before any task runs."""

    @pytest.mark.parametrize("kwargs,match", [
        ({"checkpoint_every": 3}, "requires checkpoint_dir"),
        ({"checkpoint_every": 0, "checkpoint_dir": "DIR"}, ">= 1"),
        ({"task_timeout": 0.0}, "task_timeout"),
        ({"task_timeout": -1.0, "workers": 2}, "task_timeout"),
    ], ids=["every-without-dir", "every-zero", "timeout-zero",
            "timeout-negative"])
    def test_rejected_before_any_task(self, tmp_path, kwargs, match):
        if kwargs.get("checkpoint_dir") == "DIR":
            kwargs = {**kwargs, "checkpoint_dir": tmp_path / "ckpt"}
        events = []
        with pytest.raises(ValueError, match=match):
            run_sweep([GOOD], progress=events.append, **kwargs)
        assert events == []
        assert not (tmp_path / "ckpt").exists()

    def test_cached_sweep_needs_a_seed(self):
        """An empty seed axis would expand to no task: the grid refuses
        it rather than yield a sweep with no points."""
        with pytest.raises(ValueError, match="seed"):
            expand_grid(GOOD, None, seeds=())


class TestSweepPartialResults:
    """The acceptance scenario: a grid where one task fails must still
    complete every healthy task and report the failure structurally."""

    def test_detailed_run_completes_healthy_tasks(self):
        with pytest.raises(SweepError) as ei:
            run_sweep([GOOD, BAD], task_retries=0)
        run = ei.value.run
        assert isinstance(run, SweepRun)
        assert len(run.results) == 2
        assert run.results[0] is not None
        assert run.results[0].scenario == GOOD
        assert run.results[1] is None
        assert not run.ok
        (err,) = run.errors
        assert isinstance(err, TaskError)
        assert err.index == 1 and err.kind == "exception"
        assert err.scenario == BAD
        assert "pause must be non-negative" in err.message

    def test_run_sweep_raises_at_end_with_partials_attached(self):
        with pytest.raises(SweepError) as ei:
            run_sweep([GOOD, BAD], task_retries=0)
        run = ei.value.run
        assert run.results[0] is not None and run.results[1] is None
        assert "task 1" in str(ei.value)

    def test_run_sweep_partial_mode(self):
        with pytest.raises(SweepError) as ei:
            run_sweep([BAD, GOOD], task_retries=0)
        out = ei.value.run.results
        assert out[0] is None and out[1] is not None

    def test_failed_task_is_retried(self):
        with pytest.raises(SweepError) as ei:
            run_sweep([BAD], task_retries=2)
        assert ei.value.run.errors[0].attempts == 3

    def test_parallel_grid_with_crasher_keeps_healthy_results(self):
        """Mixed grid through real processes: the healthy scenarios all
        finish (possibly via retry after the pool breaks) and match the
        serial run bit-for-bit."""
        grid = expand_grid(GOOD, [60], seeds=(0, 1)) + [BAD]
        with pytest.raises(SweepError) as ei:
            run_sweep(grid, workers=2, task_retries=2)
        run = ei.value.run
        assert [r is not None for r in run.results] == [True, True, False]
        serial = run_sweep(grid[:2], workers=0)
        for got, want in zip(run.results[:2], serial):
            assert got.phi == want.phi and got.gamma == want.gamma
        assert run.errors[0].scenario == BAD
