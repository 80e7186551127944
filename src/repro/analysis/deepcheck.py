"""The dataflow determinism passes (RK3xx) of ``repro lint --self``.

The RK2xx self-linter is deliberately syntax-local: each pass looks at
one file's AST and flags one statement shape.  That was enough for the
bug classes PRs 1–5 fixed by hand, but PR 7's stale-active bug — a
completion callback mutating flow membership while a refill held a
snapshot of it — is *dataflow*-shaped: the hazard spans an assignment,
a suspension point, and a later use, and whether an unseeded RNG
matters depends on where its value ends up, not where it is built.

These passes use the project-wide symbol table and call graph that
:class:`~repro.analysis.selfcheck.SelfLintContext` builds from its one
parse of ``src/repro`` (every module, class, function and method with a
stable qualified name; call edges resolved from imports, module-level
names and ``self.method`` dispatch):

* **RK301 — unseeded-RNG taint**: a ``random.Random()`` constructed
  without a seed argument (or with ``None``, which also seeds from OS
  entropy) inside simulation code, or flowing into it through the call
  graph.  Hash-seed jitter in disguise: every draw from it differs run
  to run.  The diagnostic carries the call chain from the nearest
  simulation entry point to the construction site.
* **RK302 — yield-straddling staleness**: a local snapshot of shared
  mutable state (``list(self.flows)``, ``x.members.copy()``, …) captured
  before a ``yield`` and read after it.  While the generator was
  suspended, anyone may have mutated the underlying state — the exact
  PR 7 bug class, mechanically.
* **RK303 — unbounded wait loops**: a ``while`` loop polling a
  condition whose body does nothing but sleep (``yield env.timeout``)
  with no deadline, attempt budget, or escape on the path.  If the
  condition never comes true the process spins forever and the scenario
  wedges with no diagnosis.
* **RK304 — order-sensitive float accumulation**: ``sum()`` over an
  unordered set (or ``+=`` under iteration over one) in a hot package.
  Float addition is not associative; summing in hash order makes the
  low bits of every derived rate and timestamp hash-seed-dependent.

They register in ``SELF_PASSES`` beside the RK2xx passes, run through
:func:`~repro.analysis.selfcheck.analyze_self` against the same
baseline and renderers, and their JSON output is byte-identical across
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import ast
import re
from typing import Optional

from .passes import register_self
from .selfcheck import (
    ModuleInfo,
    SelfLintContext,
    is_unordered,
    scope_walk,
    set_names,
)

#: names that evidence a bound on a polling loop (deadline, budget, …)
_BOUND_NAME_RE = re.compile(
    r"deadline|timeout|attempt|retr|budget|remaining|until|expir|"
    r"max_|_max|tries|give_up|limit",
    re.IGNORECASE,
)

_SNAPSHOT_FUNCS = frozenset({
    "list", "sorted", "tuple", "dict", "set", "frozenset",
})


# -- RK301: unseeded-RNG taint ---------------------------------------------------


def _is_unseeded_random(node: ast.Call, mi: ModuleInfo) -> bool:
    """``random.Random()`` / imported ``Random()`` with no seed argument,
    or with a literal ``None`` seed (which also seeds from OS entropy)."""
    func = node.func
    named = False
    if (isinstance(func, ast.Attribute) and func.attr == "Random"
            and isinstance(func.value, ast.Name)
            and func.value.id in mi.random_names):
        named = True
    elif isinstance(func, ast.Name):
        origin = mi.from_imports.get(func.id)
        named = origin == ("random", "Random")
    if not named:
        return False
    seeds = node.args[:1] or [kw.value for kw in node.keywords
                              if kw.arg in ("x", "seed")]
    return not seeds or (isinstance(seeds[0], ast.Constant)
                         and seeds[0].value is None)


@register_self("RK301")
def check_unseeded_rng_taint(ctx: SelfLintContext):
    """An unseeded ``random.Random()`` is hash-seed jitter with a handle.

    ``random.Random()`` with no seed initialises from OS entropy: every
    value drawn from it differs run to run, so any rate, delay or
    ordering derived from it breaks byte-identical replay.  The call
    graph decides whether it matters: a construction inside simulation
    code (or returned into it through a helper) is flagged with the
    chain from the nearest simulation entry point.
    """
    for info in ctx.functions.values():
        for node in scope_walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            if not _is_unseeded_random(node, info.mi):
                continue
            chain = ctx.sim_chain(info.qualname)
            if chain is None:
                continue  # never reaches simulation code
            yield ctx.diag(
                "RK301",
                "random.Random() constructed without a seed "
                + ("in simulation code" if len(chain) == 1 else
                   f"flows into simulation code via {chain[0]}"),
                info.mi, node,
                hint="pass an explicit seed (derive it from the scenario "
                     "seed) so every draw replays byte-identically",
                chain=chain,
            )


# -- RK302: yield-straddling staleness -------------------------------------------


def _is_shared_snapshot(value: ast.expr) -> Optional[str]:
    """The snapshot expression when ``value`` copies shared mutable state.

    Recognised shapes: ``list(x.attr...)`` / ``sorted`` / ``dict`` /
    ``set`` / ``tuple`` / ``frozenset`` over an expression that reads an
    attribute, and ``x.attr.copy()``.  A copy of purely local data
    (``list(names)``) is not shared state and stays exempt.
    """
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if (isinstance(func, ast.Name) and func.id in _SNAPSHOT_FUNCS
            and value.args
            and any(isinstance(n, ast.Attribute)
                    for n in ast.walk(value.args[0]))):
        return ast.unparse(value)
    if (isinstance(func, ast.Attribute) and func.attr == "copy"
            and isinstance(func.value, ast.Attribute)):
        return ast.unparse(value)
    return None


@register_self("RK302")
def check_yield_straddle(ctx: SelfLintContext):
    """The PR 7 stale-active bug class, mechanically.

    A generator that snapshots shared mutable state, suspends at a
    ``yield``, and then consumes the snapshot is trusting that nobody
    mutated the underlying state while it slept — but a yield is exactly
    where every other process (and every completion callback) gets to
    run.  Re-derive the snapshot after resuming, or re-validate each
    member against the live structure (the PR 7 fix).
    """
    for info in ctx.functions.values():
        yields = sorted(n.lineno for n in scope_walk(info.node)
                        if isinstance(n, (ast.Yield, ast.YieldFrom)))
        if not yields:
            continue
        for node in scope_walk(info.node):
            if not isinstance(node, ast.Assign):
                continue
            snap = _is_shared_snapshot(node.value)
            if snap is None:
                continue
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if not names:
                continue
            name = names[0]
            uses = sorted(
                n.lineno for n in scope_walk(info.node)
                if isinstance(n, ast.Name) and n.id == name
                and isinstance(n.ctx, ast.Load)
            )
            straddling = [
                u for u in uses
                if any(node.lineno < y < u for y in yields)
            ]
            if straddling:
                yield ctx.diag(
                    "RK302",
                    f"snapshot {name!r} = {snap} is captured before a "
                    f"yield and read at line {straddling[0]} after it",
                    info.mi, node,
                    hint="re-derive the snapshot after the yield, or "
                         "re-check each member against the live "
                         "structure before acting on it",
                    snapshot=snap, first_stale_use=straddling[0],
                )


# -- RK303: unbounded wait loops -------------------------------------------------


def _is_sleep_yield(stmt: ast.AST) -> bool:
    """``yield env.timeout(...)`` / ``yield env.slotted_timeout(...)``."""
    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Yield)):
        return False
    val = stmt.value.value
    return (isinstance(val, ast.Call)
            and isinstance(val.func, ast.Attribute)
            and val.func.attr in ("timeout", "slotted_timeout"))


@register_self("RK303")
def check_unbounded_wait_loops(ctx: SelfLintContext):
    """A pure sleep-poll loop with no bound can spin forever.

    The shape is ``while <condition>: yield env.timeout(t)`` (the body
    does nothing but sleep).  If the condition is wedged — the event it
    polls for was lost to a fault — the process never exits and never
    raises, so the scenario hangs with no diagnosis.  Loops whose test
    or surrounding statements reference a deadline/attempt bound, and
    loops that do real work per tick (service loops), are exempt.
    """
    for info in ctx.functions.values():
        for node in scope_walk(info.node):
            if not isinstance(node, ast.While):
                continue
            if isinstance(node.test, ast.Constant):
                continue  # `while True` service loops are not polls
            body = [s for s in node.body
                    if not (isinstance(s, ast.Expr)
                            and isinstance(s.value, ast.Constant))]
            if len(body) != 1 or not _is_sleep_yield(body[0]):
                continue
            cond_text = ast.unparse(node.test)
            if _BOUND_NAME_RE.search(cond_text):
                continue
            yield ctx.diag(
                "RK303",
                f"polling wait loop on {cond_text!r} sleeps with no "
                f"deadline or attempt bound",
                info.mi, node,
                hint="wait on the event itself (or AnyOf(event, "
                     "env.timeout(deadline))) so a wedged condition "
                     "fails loudly instead of spinning forever",
                condition=cond_text,
            )


# -- RK304: order-sensitive float accumulation ------------------------------------


@register_self("RK304")
def check_float_accumulation_order(ctx: SelfLintContext):
    """Summing floats in hash order makes the low bits seed-dependent.

    ``sum()`` over a set (directly, or through a comprehension iterating
    one) and ``+=`` under a for-over-set both accumulate in whatever
    order the hash seed dealt; IEEE addition is not associative, so two
    runs can disagree in the last ulp — and a rate or timestamp derived
    from the total diverges from there.  Only hot packages are scanned:
    that is where float totals reach rates, etas and telemetry.
    """
    for info in ctx.functions.values():
        if not ctx.is_hot(info.mi):
            continue
        names = set_names(info.node)
        for node in scope_walk(info.node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "sum" and node.args):
                arg = node.args[0]
                unordered = is_unordered(arg, names)
                if not unordered and isinstance(
                        arg, (ast.GeneratorExp, ast.ListComp)):
                    unordered = any(
                        is_unordered(gen.iter, names)
                        for gen in arg.generators
                    )
                if unordered:
                    yield ctx.diag(
                        "RK304",
                        f"sum() over unordered iterable "
                        f"{ast.unparse(arg)!r} in a hot path",
                        info.mi, node,
                        hint="accumulate over an insertion-ordered dict "
                             "or sorted(...) so the float total is "
                             "identical on every run",
                        expr=ast.unparse(arg),
                    )
            elif isinstance(node, ast.For) and is_unordered(
                    node.iter, names):
                for stmt in ast.walk(node):
                    if isinstance(stmt, ast.AugAssign) and isinstance(
                            stmt.op, ast.Add):
                        yield ctx.diag(
                            "RK304",
                            f"'+=' accumulation under iteration over "
                            f"unordered {ast.unparse(node.iter)!r} in a "
                            f"hot path",
                            info.mi, stmt,
                            hint="iterate an insertion-ordered dict or "
                                 "sorted(...) when accumulating floats",
                            expr=ast.unparse(node.iter),
                        )
