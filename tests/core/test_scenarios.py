"""The scenario registry behind trace, explain, sanitize and fork."""

import argparse
import pathlib

import pytest

from repro import scenarios
from repro.cli import build_parser

#: a small size per registry name, so every entry runs in about a second
SMALL = {"reinstall": 2, "chaos": 2, "storm": 4, "fork": 16, "race-fixture": 4}

COMMANDS = ("trace", "explain", "sanitize")


def _scenario_choices(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    [action] = [a for a in sub.choices[command]._actions
                if a.dest == "scenario"]
    return action.choices


def test_registry_names_and_default_sizes():
    assert {name: s.nodes for name, s in scenarios.SCENARIOS.items()} == {
        "reinstall": 8, "chaos": 8, "storm": 12, "fork": 512,
        "race-fixture": 8,
    }
    assert set(SMALL) == set(scenarios.SCENARIOS)


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_scenario_digest_is_stable_and_cli_accepts_it(name):
    a = scenarios.run(name, SMALL[name])
    b = scenarios.run(name, SMALL[name])
    assert a.scenario == name and a.output
    assert a.digest == b.digest
    for command in COMMANDS:
        args = build_parser().parse_args([
            command, *(["--scenario"] if command == "trace" else []), name])
        assert args.scenario == name


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_accept_exactly_the_registry(command):
    assert list(_scenario_choices(command)) == sorted(scenarios.SCENARIOS)


def test_unknown_scenario_is_a_value_error():
    with pytest.raises(ValueError, match="unknown scenario 'bogus'"):
        scenarios.run("bogus", 1)


def test_traced_run_carries_its_tracer():
    run = scenarios.run("reinstall", 1, traced=True)
    assert run.tracer is not None and run.tracer.enabled
    assert scenarios.run("reinstall", 1).tracer is None


def test_fork_defaults_reproduce_the_ci_golden():
    golden = pathlib.Path(__file__).parents[1] / "exec" / "golden"
    assert scenarios.run("fork").output == (
        golden / "fork_512_seed42.txt").read_text(encoding="utf-8")


def test_explicit_seed_reseeds_reinstall_and_chaos():
    for name in ("reinstall", "chaos"):
        own = scenarios.run(name, 2).digest
        assert scenarios.run(name, 2, seed=3).digest != own
