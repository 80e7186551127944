"""Engine self-profiler: counts, attribution, ambient opt-in, zero overhead,
and profiling together with the schedule sanitizer."""

import pytest

from repro import build_cluster
from repro.analysis.sanitizer import (
    SanitizeOptions,
    run_scenario,
    sanitized,
)
from repro.netsim import (
    Environment,
    InstrumentedEnvironment,
    SimulationError,
    profiled,
)
from repro.netsim import engine as _engine
from repro.netsim.profiler import ProfiledEnvironment


def drive(env, n=5, dt=1.0):
    def ticker():
        for _ in range(n):
            yield env.timeout(dt)

    env.process(ticker())
    env.run()
    return env


def test_profiled_env_counts_events_and_heap_traffic():
    env = drive(Environment(profile=True))
    prof = env.profiler
    assert prof.events_dispatched == env.events_dispatched
    assert prof.heap_pops == prof.heap_pushes > 0
    assert prof.sim_seconds == pytest.approx(5.0)


def test_profiled_env_simulates_identically_to_plain():
    """Profiling must observe, never perturb: same clock, same event
    count, same sequence numbers."""
    plain = drive(Environment(), n=7, dt=0.5)
    prof = drive(Environment(profile=True), n=7, dt=0.5)
    assert prof.now == plain.now
    assert prof.events_dispatched == plain.events_dispatched
    assert repr(prof._seq) == repr(plain._seq)  # same next sequence number


def test_by_site_attributes_wall_time_to_the_generator():
    env = drive(Environment(profile=True))
    sites = list(env.profiler.by_site)
    assert any(site.endswith(":ticker") for site in sites)
    calls, wall = env.profiler.by_site[
        next(s for s in sites if s.endswith(":ticker"))
    ]
    assert calls >= 5 and wall >= 0.0


def test_timeout_batch_counted_in_bulk():
    env = Environment(profile=True)
    env.timeout_batch([1.0, 2.0, 3.0])
    assert env.profiler.timeout_batches == 1
    assert env.profiler.heap_pushes == 3


def test_step_on_empty_queue_still_raises():
    with pytest.raises(SimulationError):
        Environment(profile=True).step()


def test_run_until_event_and_deadline_match_base_semantics():
    env = Environment(profile=True)
    t = env.timeout(2.0, value="done")
    assert env.run(until=t) == "done"
    env.run(until=10.0)
    assert env.now == 10.0


def test_plain_environment_carries_no_profiler():
    env = Environment()
    assert type(env) is Environment
    assert not hasattr(env, "profiler")


def test_profiled_context_swaps_internally_built_environments():
    with profiled() as session:
        sim = build_cluster(n_compute=1)
        sim.integrate_all()
    assert len(session.envs) == 1
    # perfbench/layers.py patches step and run through the old name
    assert type(sim.env) is ProfiledEnvironment is InstrumentedEnvironment
    report = session.profilers[0].report()
    assert report["events_dispatched"] > 0
    assert report["fair_share_refills"] > 0  # FlowNetwork self-registered
    assert "engine profile:" in session.render()
    # the ambient session does not leak past the block
    assert _engine._AMBIENT == (None, None)
    assert type(Environment()) is Environment


def test_profiled_render_lists_hottest_sites():
    with profiled() as session:
        sim = build_cluster(n_compute=1)
        sim.integrate_all()
    text = session.render(top=3)
    assert "hottest callback sites" in text
    assert "src/repro/" in text


def test_explicit_sanitize_and_profile_construct_together():
    env = Environment(sanitize=SanitizeOptions(seed=3), profile=True)
    assert type(env) is InstrumentedEnvironment
    assert env.sanitizer.options.seed == 3
    drive(env)
    assert env.profiler.events_dispatched == env.events_dispatched
    assert len(env.sanitizer.dispatch_log) == env.events_dispatched


@pytest.mark.parametrize("profile_outer", [True, False],
                         ids=["profile-outer", "sanitize-outer"])
def test_profiled_and_sanitized_nest_in_either_order(profile_outer):
    """Both sessions see the one environment built inside both blocks."""
    with (profiled() if profile_outer else sanitized()) as outer:
        with (sanitized() if profile_outer else profiled()) as inner:
            env = Environment()
    prof_session, san_session = (
        (outer, inner) if profile_outer else (inner, outer)
    )
    assert prof_session.envs == [env]
    assert san_session.envs == [env]
    assert env.sanitizer is not None and env.profiler is not None
    assert _engine._AMBIENT == (None, None)
    assert type(Environment()) is Environment


def test_profiled_sanitized_table1_counts_agree():
    """On a Table I run, profiler, engine and dispatch log count the same
    dispatches, and profiling leaves the sanitized digest unchanged."""
    with profiled() as session:
        run = run_scenario("table1", 1, nodes=2, record_stacks=False)
    [env] = session.envs
    prof = session.profilers[0]
    assert prof.events_dispatched == env.events_dispatched
    assert env.events_dispatched == len(env.sanitizer.dispatch_log)
    assert len(run.dispatch_log) == env.events_dispatched
    plain = run_scenario("table1", 1, nodes=2, record_stacks=False)
    assert run.digest == plain.digest


def test_profile_session_empty_render():
    with profiled() as session:
        pass
    assert session.render() == "engine profile: no environments were built"
