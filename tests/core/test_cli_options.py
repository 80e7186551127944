"""Option constraints: every bad value is a usage error naming its flag.

The options dataclasses and the scenario registry check values and
raise :class:`~repro.options.OptionError`; the CLI reports it against
the flag that set the field and exits 2.  The regression cases pin the
inputs that used to crash, hang or run meaninglessly; the property test
then draws boundary and garbage values for every valued flag of every
registry-backed command.
"""

import contextlib
import io
import math
import signal
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import scenarios
from repro.cli import main
from repro.exec import ExecOptions, ExecTask
from repro.load import StormOptions
from repro.options import OptionError


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail, rather than hang, when a run exceeds ``seconds`` of wall."""
    def expire(signum, frame):
        raise TimeoutError(f"run exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_cli(argv: list[str], seconds: int = 60) -> tuple[int, str]:
    """``(exit code, stderr)`` of ``repro argv``, run in-process."""
    err = io.StringIO()
    with time_limit(seconds), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("argv, flag", [
    # a ValueError traceback (exit 1) at the options dataclasses
    (["fork", "--nodes", "node[0-3]", "--dead", "2"], "--dead"),
    (["fork", "--nodes", "node[0-3]", "--retries", "-3"], "--retries"),
    (["fork", "--nodes", "node[0-3]", "--timeout", "-1"], "--timeout"),
    (["fork", "--nodes", "node[0-3]", "--fanout", "0"], "--fanout"),
    (["storm", "--nodes", "2", "--deadline", "-10"], "--deadline"),
    (["storm", "--nodes", "2", "--stagger", "-5"], "--stagger"),
    (["monitor", "--nodes", "2", "--interval", "0"], "--interval"),
    (["chaos", "--nodes", "-1"], "--nodes"),
    # NaN got past every `x <= 0` check
    (["storm", "--nodes", "2", "--deadline", "nan"], "--deadline"),
    (["fork", "--nodes", "node[0-3]", "--timeout", "nan"], "--timeout"),
    (["monitor", "--nodes", "2", "--interval", "nan"], "--interval"),
    (["chaos", "--nodes", "2", "--min-completion", "nan"], "--min-completion"),
    # a prefix of --deadline
    (["storm", "--nodes", "2", "--dead", "2"], "--dead"),
    # accepted but meaningless
    (["chaos", "--nodes", "2", "--min-completion", "7"], "--min-completion"),
    (["explain", "--nodes", "1", "--top", "-1"], "--top"),
    (["fork", "--nodes", "node[0-3]", "--straggler-factor", "-1"],
     "--straggler-factor"),
    (["fork", "--nodes", "node[0-3]", "--size", "-1"], "--size"),
    (["table1", "--max-nodes", "-1"], "--max-nodes"),
    (["trace", "--nodes", "-2"], "--nodes"),
    (["sanitize", "reinstall", "--nodes", "-1"], "--nodes"),
    # an exec schedule whose backoff overflows a float
    (["fork", "--nodes", "node[0-3]", "--retries", "100000",
      "--stragglers", "0.5", "--timeout", "1"], "--retries"),
    # vacuous verdicts
    (["sanitize", "race-fixture", "--seeds", "3", "3"], "--seeds"),
    (["chaos", "--nodes", "0"], "--nodes"),
])
def test_bad_value_is_a_usage_error_naming_the_flag(argv, flag):
    code, err = run_cli(argv)
    assert code == 2
    assert f"error: {flag}" in err or f"arguments: {flag}" in err


@pytest.mark.parametrize("argv", [
    # a stagger beyond the 3600 s window integration used to allow
    ["storm", "--nodes", "4", "--stagger", "10000"],
    # a deadline shorter than the default 45 s stagger
    ["storm", "--nodes", "2", "--deadline", "30"],
])
def test_storm_runs_to_a_verdict(argv):
    code, _ = run_cli(argv)
    assert code in (0, 1)


@pytest.mark.parametrize("stagger", [math.nan, math.inf, -1.0, 1e9])
def test_storm_rejects_a_stagger_it_cannot_simulate(stagger):
    with pytest.raises(OptionError) as exc:
        StormOptions(dhcp_stagger=stagger)
    assert exc.value.field == "dhcp_stagger"


def test_backoff_schedule_must_stay_a_finite_float():
    assert ExecOptions(max_retries=1020).max_retries == 1020
    with pytest.raises(OptionError) as exc:
        ExecOptions(max_retries=1030)
    assert exc.value.field == "max_retries"


def test_failed_exec_worker_raises_its_own_exception(monkeypatch):
    def broken(self, *args):
        raise RuntimeError("worker broke")
        yield  # pragma: no cover  (makes this a generator)

    monkeypatch.setattr(ExecTask, "_attempts", broken)
    with pytest.raises(RuntimeError, match="worker broke"):
        scenarios.run("fork", 4)


def test_option_error_names_the_field():
    with pytest.raises(OptionError) as exc:
        scenarios.run("storm", 2, plan="chaos")
    assert exc.value.field == "plan"
    assert str(exc.value) == (
        "plan applies only to the chaos scenario, not 'storm'")


# -- property: any value either runs or is a usage error ----------------------

#: value kinds: SIZE flags set how many nodes run, so they draw no huge
#: values (a huge cluster is valid, only slow); SWITCH flags take none
VALUE, SIZE, SWITCH = "value", "size", "switch"

#: command -> (tiny base argv, {flag: kind}).  Path flags (--slo,
#: --export, --out, --validate, --baseline) are left out: their values
#: name files, not ranges.  So are tiny positive periods (--interval,
#: --watch, --straggler-interval, --timeout at 1e-6): valid but slow,
#: e.g. `fork --straggler-interval 1e-6` took 19.5 s.
COMMANDS = {
    "reinstall": (["--nodes", "2"], {"--nodes": SIZE}),
    "table1": (["--max-nodes", "1"], {"--max-nodes": SIZE}),
    "chaos": (["--nodes", "2", "--plan", "none"], {
        "--nodes": SIZE, "--plan": VALUE, "--seed": VALUE,
        "--min-completion": VALUE, "--resilience": SWITCH,
        "--frontend-crash": SWITCH}),
    "storm": (["--nodes", "2"], {
        "--nodes": SIZE, "--seed": VALUE, "--no-autoscale": SWITCH,
        "--stagger": VALUE, "--deadline": VALUE}),
    "monitor": (["--nodes", "2"], {
        "--nodes": SIZE, "--plan": VALUE, "--seed": VALUE,
        "--interval": VALUE, "--watch": VALUE, "--resilience": SWITCH,
        "--alerts": SWITCH, "--xml": SWITCH}),
    "fork": (["--nodes", "node[0-3]"], {
        "--nodes": VALUE, "--size": SIZE, "--fanout": VALUE,
        "--timeout": VALUE, "--retries": VALUE, "--dead": VALUE,
        "--stragglers": VALUE, "--seed": VALUE,
        "--straggler-interval": VALUE, "--straggler-factor": VALUE}),
    "trace": (["--nodes", "1"], {
        "--scenario": VALUE, "--nodes": SIZE, "--plan": VALUE,
        "--seed": VALUE, "--format": VALUE, "--summary": SWITCH}),
    "explain": (["reinstall", "--nodes", "1"], {
        "--nodes": SIZE, "--plan": VALUE, "--seed": VALUE, "--top": VALUE,
        "--profile": SWITCH}),
    "sanitize": (["reinstall", "--nodes", "1", "--no-stacks"], {
        "--nodes": SIZE, "--seeds": VALUE, "--no-stacks": SWITCH,
        "--no-baseline": SWITCH}),
}

#: exit codes that report a verdict, not a usage error
VERDICT = {"chaos": 1, "storm": 1, "sanitize": 1}

HUGE = ("1e300", "1" + "0" * 30)
GARBAGE = ("0", "-1", "nan", "inf", "-inf", "abc", "") + HUGE


@st.composite
def draws(draw):
    """``(argv, flag)``: one command at a tiny size, one flag given a
    boundary or garbage value, or abbreviated to a prefix."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    base, flags = COMMANDS[command]
    flag = draw(st.sampled_from(sorted(flags)))
    kind = flags[flag]
    if kind is not SWITCH and draw(st.booleans()):
        # a prefix that is not itself a flag of the command
        prefix = draw(st.sampled_from(
            [flag[:n] for n in range(3, len(flag)) if flag[:n] not in flags]))
        return [command, *base, prefix, "1"], prefix
    if kind is SWITCH:
        return [command, *base, flag], flag
    values = [v for v in GARBAGE if kind is VALUE or v not in HUGE]
    if flag == "--seeds":
        pair = draw(st.tuples(st.sampled_from(values), st.sampled_from(values)))
        return [command, *base, flag, *pair], flag
    return [command, *base, f"{flag}={draw(st.sampled_from(values))}"], flag


@settings(max_examples=100, deadline=timedelta(seconds=20))
@given(case=draws())
def test_every_value_runs_or_is_a_usage_error_naming_its_flag(case):
    argv, flag = case
    code, err = run_cli(argv, seconds=30)
    assert "Traceback" not in err
    assert code in (0, VERDICT.get(argv[0], 0)) or (code == 2 and flag in err), \
        (code, err)
