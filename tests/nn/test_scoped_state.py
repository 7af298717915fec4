"""Engine scopes are context-local: a scope on one thread is invisible to others.

Every engine setting (default dtype, graph replay, grad mode, the op tracer
and ambient replay-stats sinks) lives in a ``contextvars.ContextVar``.  Two threads that interleave their scopes must
each see only their own values, both must restore cleanly in any exit
order, and a thread that never opened a scope runs at the defaults.
"""

import threading

import numpy as np
import pytest

from repro.nn import (MLP, SGD, GraphReplay, ReplayStats, collect_replay_stats,
                      cross_entropy_step, default_dtype, get_default_dtype, graph_replay_enabled,
                      is_grad_enabled, no_grad, use_graph_replay)

DEFAULTS = (np.float64, True, True)


def snapshot():
    return get_default_dtype(), graph_replay_enabled(), is_grad_enabled()


def run_threads(*targets, timeout=30):
    """Run ``targets`` on their own threads; re-raise the first failure.

    A failing thread aborts ``barrier`` so its partner never hangs.
    """
    errors = []
    barrier = threading.Barrier(len(targets), timeout=timeout)

    def guarded(target):
        try:
            target(barrier)
        except Exception as error:  # re-raised on the calling thread
            errors.append(error)
            barrier.abort()

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        real = [e for e in errors
                if not isinstance(e, threading.BrokenBarrierError)]
        raise (real or errors)[0]


class TestInterleavedScopes:
    def test_each_thread_sees_only_its_own_scopes(self):
        before = snapshot()
        seen = {}

        def thread_a(barrier):
            with default_dtype("float32"), use_graph_replay(False):
                barrier.wait()                      # 1: A in scope
                barrier.wait()                      # 2: B in scope
                seen["a_mid"] = snapshot()
                barrier.wait()                      # 3: B in its inner scope
                seen["a_inner"] = snapshot()
                barrier.wait()                      # 4
            # A exits first, while B is still inside its scopes.
            seen["a_after"] = snapshot()
            barrier.wait()                          # 5: A out
            barrier.wait()                          # 6: B out

        def thread_b(barrier):
            barrier.wait()                          # 1
            with default_dtype("float64"), use_graph_replay(True):
                barrier.wait()                      # 2
                seen["b_mid"] = snapshot()
                with use_graph_replay(False), no_grad():
                    barrier.wait()                  # 3
                    seen["b_inner"] = snapshot()
                    barrier.wait()                  # 4
                    barrier.wait()                  # 5: A has exited
                    seen["b_inner_after_a"] = snapshot()
            seen["b_after"] = snapshot()
            barrier.wait()                          # 6

        run_threads(thread_a, thread_b)

        assert seen["a_mid"] == (np.float32, False, True)
        assert seen["b_mid"] == (np.float64, True, True)
        assert seen["a_inner"] == seen["a_mid"]
        assert seen["b_inner"] == (np.float64, False, False)
        assert seen["b_inner_after_a"] == seen["b_inner"]
        assert seen["a_after"] == DEFAULTS
        assert seen["b_after"] == DEFAULTS
        assert snapshot() == before == DEFAULTS

    def test_no_grad_and_dtype_stay_on_their_thread(self):
        seen = {}

        def worker(barrier):
            barrier.wait()                          # main is in its scopes
            seen["worker"] = snapshot()
            barrier.wait()

        def main_side(barrier):
            with default_dtype("float32"), no_grad():
                barrier.wait()
                seen["main"] = snapshot()
                barrier.wait()

        run_threads(worker, main_side)
        assert seen["worker"] == DEFAULTS
        assert seen["main"] == (np.float32, True, False)

    def test_new_threads_start_at_the_defaults(self):
        seen = []
        with default_dtype("float32"), use_graph_replay(False), no_grad():
            thread = threading.Thread(target=lambda: seen.append(snapshot()))
            thread.start()
            thread.join(timeout=30)
            assert snapshot() == (np.float32, False, False)
        assert seen == [DEFAULTS]

    def test_default_dtype_rejects_other_dtypes(self):
        with pytest.raises(ValueError):
            with default_dtype("float16"):
                pass
        assert get_default_dtype() is np.float64


def train_a_few_steps(steps=3):
    rng = np.random.default_rng(0)
    features = rng.normal(size=(16, 6))
    labels = rng.integers(0, 3, size=16)
    model = MLP(6, [8], 3, rng=np.random.default_rng(1))
    stepper = GraphReplay(model, SGD(model.parameters(), lr=0.1))
    for _ in range(steps):
        stepper.step_fn(cross_entropy_step, {"x": features, "y": labels})
    return stepper


class TestReplayStatsScope:
    def test_other_threads_steppers_do_not_tick_the_scope(self):
        stats = ReplayStats()
        own = {}

        def outsider(barrier):
            barrier.wait()                          # main's scope is open
            own["stepper"] = train_a_few_steps()
            barrier.wait()

        def main_side(barrier):
            with collect_replay_stats(stats):
                barrier.wait()
                barrier.wait()

        run_threads(outsider, main_side)
        assert own["stepper"].stats.total == 3
        assert stats.total == 0

    def test_steppers_in_scope_tick_it_once(self):
        stats = ReplayStats()
        with collect_replay_stats(stats), collect_replay_stats(stats):
            train_a_few_steps()
        assert (stats.captures, stats.replays, stats.eager_steps) == (1, 2, 0)
        train_a_few_steps()
        assert stats.total == 3
