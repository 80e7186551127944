"""The determinism linter: one parse of our own source, every RK2xx/RK3xx pass.

PRs 1-3 made byte-identical determinism a load-bearing guarantee —
journal replay, same-seed traces, chaos verdicts all compare runs
byte-for-byte.  :class:`SelfLintContext` parses each file under
``src/repro`` once and builds the project-wide symbol table and call
graph from the same trees.  Every pass in ``SELF_PASSES`` runs over that
one context through :func:`analyze_self`: the RK3xx dataflow passes in
:mod:`repro.analysis.deepcheck`, and the syntax-local RK2xx passes
here, each flagging one statement shape:

* **RK201** — wall-clock reads (``time.time``, ``datetime.now``), or a
  wall-clock function bound to a local: simulation code must only read
  ``env.now``;
* **RK202** — module-level ``random.*`` calls: the shared global RNG is
  unseeded cross-test state; use a seeded ``random.Random`` instance;
* **RK203** — ``for``-iteration over a ``set``/``frozenset`` in the
  netsim/installer hot paths: set order varies with hash seeding and
  history, so anything order-sensitive (float accumulation, event
  sequencing) silently diverges;
* **RK204** — a telemetry span opened and discarded (``tracer.span(...)``
  as a bare statement): it can never be closed, so it exports with
  ``t1: null`` and poisons duration aggregates;
* **RK205** — a round-robin metric series opened and discarded
  (``store.open_series(...)`` as a bare statement): nothing holds the
  handle, so nothing records into it or closes it, and the monitoring
  export carries a permanently empty (or never-flushed) series;
* **RK206** — an unbounded queue constructed in the ``load``/``netsim``
  packages (``deque()`` with no ``maxlen``, ``Queue()``/``SimpleQueue()``
  with no size bound): open-loop load makes any unbounded buffer an
  eventual memory-shaped outage, so storm-path queues must either carry
  an explicit bound or a baseline entry justifying the invariant that
  bounds them;
* **RK207** — a ``for`` loop over cluster membership whose body waits on
  the simulation per host (``env.step``/``env.run``/``yield``/
  ``wait_for_state``) in a campaign surface: serial per-host waits
  stretch campaign time linearly with cluster size — drive hosts
  through :class:`repro.exec.ExecTask` (sliding fanout window) or one
  ``AllOf`` barrier instead.  Intentional remnants (e.g. insert-ethers'
  sequential boot, which *binds* rack/rank to physical position) carry
  baseline entries;
* **RK208** — a span opened without ``parent=`` in instrumented
  simulation code: PR 10 made every span carry trace context
  (``span_id``/``parent_id``/``trace_id``), and the critical-path
  analyzer can only attribute time it can reach from a root.  An
  unparented span is an accidental root that silently drops its
  subtree from ``repro explain``.  Intentional roots (campaign,
  reinstall, storm, exec fanouts) and spans that parent via the
  ambient context carry baseline entries.

The linter lints itself: ``repro lint --self`` runs every pass over
``src/repro`` (including this package) against the committed baseline.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator, Optional

from .diagnostics import Diagnostic, SourceLocation, code_info
from .passes import SELF_PASSES, register_self, run_passes

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "SelfLintContext",
    "analyze_self",
    "default_self_context",
]

#: top-level package name of everything we index
_PKG = "repro"

_WALL_TIME_FUNCS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns",
})
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
#: module-level random functions that consume the shared global RNG
_GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "seed", "getrandbits", "gauss", "betavariate",
    "normalvariate", "expovariate", "triangular", "vonmisesvariate",
    "paretovariate", "weibullvariate",
})

#: packages whose loops and float totals are determinism-critical
_HOT_PACKAGES = ("netsim", "installer", "exec", "load", "monitoring")

#: code that runs under (or drives) the DES — an unseeded RNG reaching
#: any of these is a determinism hazard.  Everything except the
#: analyzers themselves, in practice.
_SIM_PACKAGES = (
    "netsim", "installer", "services", "faults", "load", "monitoring",
    "exec", "resilience", "scheduler", "cluster", "core", "rpm",
    "telemetry", "kernel", "quickbuild.py", "scenarios.py", "options.py",
    "cli.py", "__init__.py", "__main__.py",
)

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_DEFS = _FUNCTION_DEFS + (ast.ClassDef,)


@dataclass
class ModuleInfo:
    """One parsed file and the names its imports bind."""

    module: str      # repro.netsim.flows
    rel: str         # src/repro/netsim/flows.py (repo-relative, posix)
    pkg_rel: str     # netsim/flows.py (package-relative, posix)
    tree: ast.Module
    #: names bound to the time / datetime / random modules in this file
    time_names: set[str] = field(default_factory=set)
    datetime_names: set[str] = field(default_factory=set)
    random_names: set[str] = field(default_factory=set)
    #: local binding -> dotted ``repro`` module it names
    #: (``import repro.x as y``, ``from . import engine``)
    module_names: dict[str, str] = field(default_factory=dict)
    #: every from-import: local name -> (module, original name), with
    #: relative imports resolved against this module's package
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)

    def in_package(self, prefixes: tuple[str, ...]) -> bool:
        """Is this file under one of ``prefixes`` — package-relative
        subpackages (``netsim``, ``core/tools``) or files (``cli.py``)?"""
        return any(self.pkg_rel == p or self.pkg_rel.startswith(p + "/")
                   for p in prefixes)

    def scan_imports(self) -> None:
        pkg_parts = self.module.split(".")
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "time":
                        self.time_names.add(bound)
                    elif alias.name == "datetime":
                        self.datetime_names.add(bound)
                    elif alias.name == "random":
                        self.random_names.add(bound)
                    elif alias.name.split(".")[0] == _PKG:
                        self.module_names[bound] = (
                            alias.name if alias.asname else _PKG
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # an __init__ module is its package: `.` names itself
                    up = node.level - (Path(self.pkg_rel).name == "__init__.py")
                    base = pkg_parts[: len(pkg_parts) - up]
                    origin = ".".join(base + ([node.module] if node.module
                                              else []))
                else:
                    origin = node.module or ""
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.level or origin.split(".")[0] == _PKG:
                        # `from . import engine` binds a submodule name
                        self.module_names.setdefault(
                            bound, f"{origin}.{alias.name}")
                    self.from_imports[bound] = (origin, alias.name)


@dataclass
class FunctionInfo:
    """One function, method or module body in the project symbol table."""

    qualname: str                 # repro.netsim.flows.FlowNetwork._fill
    mi: ModuleInfo                # the file it is defined in
    node: ast.AST                 # FunctionDef / AsyncFunctionDef / Module
    cls: Optional[str] = None     # enclosing class name, if a method
    #: resolved callee qualnames (call-graph edges out of this function)
    calls: list[str] = field(default_factory=list)


def scope_walk(scope: ast.AST,
               skip: tuple[type, ...] = _SCOPE_DEFS) -> Iterator[ast.AST]:
    """Walk the statements ``scope`` owns (its body, and a loop's
    ``else``) without descending into nested ``skip`` nodes — by
    default nested functions and classes, which are scopes of their
    own."""
    stack = [*getattr(scope, "body", []), *getattr(scope, "orelse", [])]
    while stack:
        node = stack.pop()
        if isinstance(node, skip):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def is_set_expr(node: ast.expr) -> bool:
    """A set display, set comprehension, or ``set(...)``/``frozenset(...)``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


def set_names(scope: ast.AST,
              skip: tuple[type, ...] = _SCOPE_DEFS) -> set[str]:
    """Local names bound to a set expression anywhere in ``scope``."""
    names: set[str] = set()
    for node in scope_walk(scope, skip):
        if isinstance(node, ast.Assign) and is_set_expr(node.value):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif (isinstance(node, ast.AnnAssign)
              and node.value is not None
              and is_set_expr(node.value)
              and isinstance(node.target, ast.Name)):
            names.add(node.target.id)
    return names


def is_unordered(node: ast.expr, names: set[str]) -> bool:
    """A set expression, or a name from :func:`set_names`."""
    return is_set_expr(node) or (isinstance(node, ast.Name)
                                 and node.id in names)


class SelfLintContext:
    """What the determinism linter scans: one parse, one symbol table.

    ``files`` parses every ``*.py`` under ``package_root`` once and scans
    its imports; ``functions`` (the symbol table with call-graph edges)
    and ``callers`` (the reverse edges) are built from those same trees
    the first time a pass asks.  Iteration everywhere is over sorted
    file lists and insertion-ordered dicts, so diagnostics come out in
    the same order on every run regardless of hash seeding.
    """

    def __init__(self, package_root: Path, repo_root: Path,
                 hot_paths: tuple[str, ...] = _HOT_PACKAGES):
        self.package_root = package_root  # e.g. <repo>/src/repro
        self.repo_root = repo_root        # diagnostic paths are relative to it
        self.hot_paths = hot_paths

    @cached_property
    def files(self) -> list[ModuleInfo]:
        """Every parseable file, in sorted path order."""
        parsed = []
        for path in sorted(self.package_root.rglob("*.py")):
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"),
                                 filename=str(path))
            except SyntaxError:
                continue  # not our job; the test suite will scream
            pkg_rel = path.relative_to(self.package_root)
            parts = (_PKG,) + pkg_rel.with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            mi = ModuleInfo(
                module=".".join(parts),
                rel=path.relative_to(self.repo_root).as_posix(),
                pkg_rel=pkg_rel.as_posix(),
                tree=tree,
            )
            mi.scan_imports()
            parsed.append(mi)
        return parsed

    @cached_property
    def functions(self) -> dict[str, FunctionInfo]:
        """qualname -> FunctionInfo, ordered by (file, definition), with
        every function's resolved callees in ``calls``."""
        functions: dict[str, FunctionInfo] = {}
        #: module -> {top-level function name -> qualname}
        module_funcs: dict[str, dict[str, str]] = {}
        #: (module, class) -> {method name -> qualname}
        class_methods: dict[tuple[str, str], dict[str, str]] = {}

        def index(mi: ModuleInfo, node: ast.AST, cls: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    index(mi, child, child.name)
                elif isinstance(child, _FUNCTION_DEFS):
                    if cls is None:
                        qual = f"{mi.module}.{child.name}"
                        module_funcs[mi.module][child.name] = qual
                    else:
                        qual = f"{mi.module}.{cls}.{child.name}"
                        class_methods.setdefault(
                            (mi.module, cls), {})[child.name] = qual
                    functions[qual] = FunctionInfo(
                        qualname=qual, mi=mi, node=child, cls=cls)
                    index(mi, child, cls)  # nested defs keep the class scope

        for mi in self.files:
            module_funcs.setdefault(mi.module, {})
            # the module body is itself a callable scope for taint purposes
            qual = f"{mi.module}.<module>"
            functions[qual] = FunctionInfo(qualname=qual, mi=mi, node=mi.tree)
            index(mi, mi.tree, None)

        def resolve(func: ast.expr, info: FunctionInfo) -> Optional[str]:
            if isinstance(func, ast.Name):
                local = module_funcs[info.mi.module]
                if func.id in local:
                    return local[func.id]
                origin = info.mi.from_imports.get(func.id)
                if origin is not None and origin[0].split(".")[0] == _PKG:
                    return f"{origin[0]}.{origin[1]}"
            elif (isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Name)):
                if func.value.id == "self" and info.cls is not None:
                    return class_methods.get(
                        (info.mi.module, info.cls), {}).get(func.attr)
                mod = info.mi.module_names.get(func.value.id)
                if mod is not None:
                    return f"{mod}.{func.attr}"
            return None

        for info in functions.values():
            seen: dict[str, None] = {}
            for node in scope_walk(info.node):
                if isinstance(node, ast.Call):
                    target = resolve(node.func, info)
                    if target is not None and target != info.qualname:
                        seen[target] = None
            info.calls = list(seen)
        return functions

    @cached_property
    def callers(self) -> dict[str, list[str]]:
        """The reverse call graph: callee qualname -> caller qualnames."""
        callers: dict[str, list[str]] = {}
        for src in self.functions.values():
            for dst in src.calls:
                callers.setdefault(dst, []).append(src.qualname)
        return callers

    # -- queries -------------------------------------------------------------
    def is_hot(self, mi: ModuleInfo) -> bool:
        return mi.in_package(self.hot_paths)

    def is_sim(self, info: FunctionInfo) -> bool:
        """Does this function live in code that runs under the DES?"""
        return info.mi.in_package(_SIM_PACKAGES)

    def sim_chain(self, qualname: str) -> Optional[list[str]]:
        """Shortest caller chain from simulation code down to ``qualname``.

        Returns ``[sim_entry, ..., qualname]`` or None when nothing in a
        simulation package (transitively) calls it.  A qualname already
        in simulation code is its own one-element chain.
        """
        info = self.functions.get(qualname)
        if info is not None and self.is_sim(info):
            return [qualname]
        # reverse-BFS: walk callers until one lives in a sim package
        frontier = [[qualname]]
        visited = {qualname}
        while frontier:
            nxt: list[list[str]] = []
            for chain in frontier:
                for caller in self.callers.get(chain[0], []):
                    if caller in visited:
                        continue
                    visited.add(caller)
                    new = [caller] + chain
                    caller_info = self.functions.get(caller)
                    if caller_info is not None and self.is_sim(caller_info):
                        return new
                    nxt.append(new)
            frontier = nxt
        return None

    def diag(self, code: str, message: str, mi: ModuleInfo,
             node: ast.AST, hint: str = "", **data) -> Diagnostic:
        return Diagnostic(
            code=code,
            severity=code_info(code).severity,
            message=message,
            location=SourceLocation(
                mi.rel, getattr(node, "lineno", 0),
                getattr(node, "col_offset", -1) + 1,
            ),
            hint=hint,
            data=data,
        )


def default_self_context() -> SelfLintContext:
    """Lint the installed ``repro`` package (src layout assumed)."""
    package_root = Path(__file__).resolve().parents[1]   # .../src/repro
    repo_root = package_root.parents[1]                  # .../
    return SelfLintContext(package_root=package_root, repo_root=repo_root)


def analyze_self(ctx: SelfLintContext, select=None, ignore=None):
    """Run every RK2xx and RK3xx pass; deterministic, sorted diagnostics."""
    return run_passes(SELF_PASSES, ctx, select=select, ignore=ignore)


# -- RK201: wall-clock reads -------------------------------------------------------


@register_self("RK201")
def check_wall_clock(ctx: SelfLintContext):
    for mi in ctx.files:
        # An aliased reference (``perf = time.perf_counter``, or a bare
        # ``perf_counter`` from ``from time import perf_counter``) reads
        # the wall clock at every later call without ever matching the
        # Call pattern below — flag the alias itself.  Nodes that ARE the
        # func of a call are skipped here (the Call branch owns them), so
        # nothing is reported twice.
        call_funcs = {
            id(node.func) for node in ast.walk(mi.tree)
            if isinstance(node, ast.Call)
        }
        for node in ast.walk(mi.tree):
            if id(node) not in call_funcs:
                clock = _wall_clock_name(node, mi)
                if clock is not None:
                    yield ctx.diag(
                        "RK201",
                        f"wall-clock function time.{clock} aliased in "
                        f"simulation code",
                        mi, node,
                        hint="read env.now (simulated time) instead; "
                             "binding the clock to a local hides every "
                             "later read from this lint",
                        call=f"time.{clock}",
                    )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            label = None
            clock = _wall_clock_name(func, mi)
            if clock is not None:
                label = f"time.{clock}()"
            elif (isinstance(func, ast.Attribute)
                  and func.attr in _DATETIME_FUNCS
                  and _is_datetime_base(func.value, mi)):
                label = f"datetime.{func.attr}()"
            if label is not None:
                yield ctx.diag(
                    "RK201",
                    f"wall-clock read {label} in simulation code",
                    mi, node,
                    hint="read env.now (simulated time) instead; wall time "
                         "breaks byte-identical replay",
                    call=label,
                )


def _wall_clock_name(node: ast.AST, mi: ModuleInfo) -> Optional[str]:
    """The ``time`` function ``node`` names: ``time.perf_counter`` via
    ``import time``, or a bare ``perf_counter`` from-imported from it."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in mi.time_names
            and node.attr in _WALL_TIME_FUNCS):
        return node.attr
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        origin = mi.from_imports.get(node.id)
        if (origin is not None and origin[0] == "time"
                and origin[1] in _WALL_TIME_FUNCS):
            return origin[1]
    return None


def _is_datetime_base(base: ast.expr, mi: ModuleInfo) -> bool:
    """datetime.now() via `from datetime import datetime/date` or
    datetime.datetime.now() via `import datetime`."""
    if isinstance(base, ast.Name):
        origin = mi.from_imports.get(base.id)
        return origin is not None and origin[0] == "datetime" and \
            origin[1] in ("datetime", "date")
    if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
        return (base.value.id in mi.datetime_names
                and base.attr in ("datetime", "date"))
    return False


# -- RK202: unseeded global RNG --------------------------------------------------


@register_self("RK202")
def check_global_random(ctx: SelfLintContext):
    for mi in ctx.files:
        for node in ast.walk(mi.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in mi.random_names
                    and func.attr in _GLOBAL_RANDOM_FUNCS):
                name = func.attr
            elif isinstance(func, ast.Name):
                origin = mi.from_imports.get(func.id)
                if (origin is not None and origin[0] == "random"
                        and origin[1] in _GLOBAL_RANDOM_FUNCS):
                    name = origin[1]
            if name is not None:
                yield ctx.diag(
                    "RK202",
                    f"random.{name}() uses the unseeded module-level RNG",
                    mi, node,
                    hint="construct a seeded random.Random(seed) and call "
                         "the method on it",
                    call=f"random.{name}",
                )


# -- RK203: set iteration in hot paths -------------------------------------------


def _scopes(tree: ast.AST) -> Iterator[ast.AST]:
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, _FUNCTION_DEFS):
            yield node


@register_self("RK203")
def check_set_iteration(ctx: SelfLintContext):
    for mi in ctx.files:
        if not ctx.is_hot(mi):
            continue
        for scope in _scopes(mi.tree):
            # Class bodies belong to the enclosing scope here.
            names = set_names(scope, _FUNCTION_DEFS)

            def iter_exprs():
                for node in scope_walk(scope, _FUNCTION_DEFS):
                    if isinstance(node, (ast.For, ast.AsyncFor)):
                        yield node.iter
                    elif isinstance(node, (ast.ListComp, ast.SetComp,
                                           ast.DictComp, ast.GeneratorExp)):
                        for gen in node.generators:
                            yield gen.iter

            for it in iter_exprs():
                if is_unordered(it, names):
                    what = (it.id if isinstance(it, ast.Name)
                            else ast.unparse(it))
                    yield ctx.diag(
                        "RK203",
                        f"iteration over unordered set {what!r} in a "
                        f"hot path",
                        mi, it,
                        hint="use dict.fromkeys(...) (insertion-ordered "
                             "set) or sorted(...) when order can reach "
                             "floats, events, or telemetry",
                        expr=what,
                    )


# -- RK204: leaked telemetry spans ----------------------------------------------


@register_self("RK204")
def check_leaked_spans(ctx: SelfLintContext):
    for mi in ctx.files:
        for node in ast.walk(mi.tree):
            if (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "span"):
                yield ctx.diag(
                    "RK204",
                    "span opened and discarded: it can never be closed",
                    mi, node,
                    hint="bind it and call .end(), or use the context-"
                         "manager form: `with tracer.span(...):`",
                )


# -- RK206: unbounded queues on storm paths --------------------------------------

#: packages (relative to the package root) where open-loop load can reach
#: (exec included: a 4096-target fan-out gathers output through MsgTree
#: and per-node buffers, which an open-loop caller can grow without bound)
_QUEUE_HOT_PACKAGES = ("load", "netsim", "exec")


def _queue_call_name(node: ast.Call, mi: ModuleInfo) -> Optional[str]:
    """'deque' / 'Queue' / 'SimpleQueue' when ``node`` constructs one."""
    func = node.func
    if isinstance(func, ast.Name):
        origin = mi.from_imports.get(func.id)
        if origin == ("collections", "deque"):
            return "deque"
        if origin is not None and origin[0] in ("queue", "asyncio") and \
                origin[1] in ("Queue", "SimpleQueue", "LifoQueue",
                              "PriorityQueue"):
            return origin[1]
        return None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id == "collections" and func.attr == "deque":
            return "deque"
        if func.value.id in ("queue", "asyncio") and func.attr in (
                "Queue", "SimpleQueue", "LifoQueue", "PriorityQueue"):
            return func.attr
    return None


def _queue_is_bounded(name: str, node: ast.Call) -> bool:
    if name == "SimpleQueue":
        return False  # SimpleQueue has no bound at all
    bound_kw = "maxlen" if name == "deque" else "maxsize"
    for kw in node.keywords:
        if kw.arg == bound_kw and not (
            isinstance(kw.value, ast.Constant) and kw.value.value in (None, 0)
        ):
            return True
    # deque's bound may also arrive as the second positional argument.
    if name == "deque" and len(node.args) >= 2:
        return True
    if name != "deque" and node.args:
        return not (isinstance(node.args[0], ast.Constant)
                    and node.args[0].value in (None, 0))
    return False


@register_self("RK206")
def check_unbounded_queues(ctx: SelfLintContext):
    """Queues on the open-loop load paths must carry an explicit bound.

    An open-loop arrival process keeps producing no matter how slow the
    consumer is; any unbounded buffer between the two converts overload
    into unbounded memory growth instead of visible backpressure.  A
    queue whose boundedness is enforced elsewhere (e.g. an accept queue
    that is length-checked before every append) is suppressed via the
    lint baseline, which doubles as an inventory of such invariants.
    """
    for mi in ctx.files:
        if not mi.in_package(_QUEUE_HOT_PACKAGES):
            continue
        for node in ast.walk(mi.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _queue_call_name(node, mi)
            if name is None or _queue_is_bounded(name, node):
                continue
            yield ctx.diag(
                "RK206",
                f"{name}() constructed without a bound on an open-loop "
                f"load path",
                mi, node,
                hint="pass maxlen=/maxsize=, or add a baseline entry "
                     "naming the invariant that bounds it",
                queue=name,
            )


# -- RK207: per-host serial wait loops over cluster membership --------------------

#: modules/packages (relative to the package root) that are campaign
#: surfaces: where an administrator-visible sweep over the whole cluster
#: is driven from
_SERIAL_SURFACES = ("cli.py", "quickbuild.py", "core/tools", "faults", "load")

#: iterable names that denote cluster membership
_MEMBERSHIP_RE = re.compile(
    r"\b(nodes|machines|compute_machines|compute_nodes|targets|outlets)\b"
)

#: env methods that advance/block the simulation inside the loop body
_SERIAL_WAIT_ATTRS = frozenset({"step", "run", "wait_for_state"})


def _body_waits_per_host(loop: ast.For) -> Optional[str]:
    """The first per-iteration simulation wait in the loop body, if any
    (a nested def's waits run on its caller's schedule)."""
    for node in scope_walk(loop, _FUNCTION_DEFS):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return "yield"
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SERIAL_WAIT_ATTRS):
            return node.func.attr
    return None


@register_self("RK207")
def check_serial_host_loops(ctx: SelfLintContext):
    """Per-host serial waits make campaign time linear in cluster size.

    A 4096-node sweep that waits for each host in turn takes 4096x one
    host's latency; the exec fabric's sliding fanout window (or a single
    ``AllOf`` barrier) takes ~max instead of ~sum.  Loops whose
    serialization is the point (insert-ethers' sequential boot binds
    rack/rank to physical position, §6.4) are suppressed via the lint
    baseline, which doubles as the inventory of intentional remnants.
    """
    for mi in ctx.files:
        if not mi.in_package(_SERIAL_SURFACES):
            continue
        for node in ast.walk(mi.tree):
            if not isinstance(node, ast.For):
                continue
            iter_text = ast.unparse(node.iter)
            if not _MEMBERSHIP_RE.search(iter_text):
                continue
            wait = _body_waits_per_host(node)
            if wait is None:
                continue
            yield ctx.diag(
                "RK207",
                f"serial per-host loop over {iter_text!r} waits on the "
                f"simulation ({wait}) once per host",
                mi, node,
                hint="drive hosts through repro.exec.ExecTask (sliding "
                     "fanout window) or one AllOf barrier; add a baseline "
                     "entry when serialization is the point",
                iterable=iter_text,
                wait=wait,
            )


# -- RK208: unparented spans in instrumented code ---------------------------------


def _is_tracer_receiver(node: ast.expr) -> bool:
    """True when ``node`` is a tracer handle: ``tracer`` / ``env.tracer``
    / ``self.tracer`` — any name or attribute chain ending in "tracer"."""
    if isinstance(node, ast.Name):
        return node.id == "tracer" or node.id.endswith("_tracer")
    if isinstance(node, ast.Attribute):
        return node.attr == "tracer" or node.attr.endswith("_tracer")
    return False


@register_self("RK208")
def check_unparented_spans(ctx: SelfLintContext):
    """Spans opened without ``parent=`` silently root their subtree.

    The critical-path analyzer walks down from a root span; a span
    created without trace context dangles as an accidental root, and
    every second under it vanishes from the attribution report (the
    exact bug the ``shoot`` span fixed: 18% of a reinstall was
    invisible).  ``parent=None`` is fine — explicitly threading a
    maybe-parent is the pattern — the lint only wants the decision made
    visibly.  Intentional roots and ambient-context parenting carry
    baseline entries, which double as the inventory of trace roots.
    """
    for mi in ctx.files:
        # The telemetry package defines the span API (and its tests of
        # record shapes); it is not an instrumentation site.
        if mi.in_package(("telemetry",)):
            continue
        for node in ast.walk(mi.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in ("span", "record_span")
                    and _is_tracer_receiver(func.value)):
                continue
            if any(kw.arg == "parent" for kw in node.keywords):
                continue
            yield ctx.diag(
                "RK208",
                f"tracer.{func.attr}(...) without parent= — an accidental "
                f"trace root drops its subtree from critical-path "
                f"attribution",
                mi, node,
                hint="thread the causal parent span (parent=..., possibly "
                     "None), or add a baseline entry naming this an "
                     "intentional root",
                call=func.attr,
            )


# -- RK205: leaked metric series ------------------------------------------------


@register_self("RK205")
def check_leaked_series(ctx: SelfLintContext):
    """A bare ``store.open_series(...)`` statement leaks the series.

    ``open_series`` is idempotent-by-name, so a discarded call *can* be
    a deliberate pre-registration — but every real use either records
    into the returned handle or keeps it for ``close()``; a bare
    statement does neither and the export ships a dead series.
    """
    for mi in ctx.files:
        for node in ast.walk(mi.tree):
            if (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "open_series"):
                yield ctx.diag(
                    "RK205",
                    "metric series opened and discarded: nothing records "
                    "into it or flushes it",
                    mi, node,
                    hint="bind the returned RoundRobinSeries and record "
                         "into it, or route writes through store.record()",
                )
