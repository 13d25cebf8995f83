"""The repo-specific rule catalog (see DESIGN.md §13).

Each rule encodes one of the invariants the execution layer depends on
but the language cannot enforce:

* **DET001** — no wall-clock reads or global/unseeded RNG inside the
  deterministic zones (everything whose output feeds content
  fingerprints: characterization, tuning, flow stages, the parallel
  substrate).  One ``time.time()`` in a fingerprinted stage poisons the
  artifact store silently.
* **DET002** — no iteration over ``set(...)``/``{...}``/``.values()``
  feeding a fingerprint/hash/digest/key computation without
  ``sorted(...)``; unordered iteration makes the digest depend on hash
  seeds and construction history.
* **PROC001** — append-mode files shared between processes (JSONL
  exporters, the run ledger) must write each record as exactly one
  write call; two writes per record can interleave with another
  process and tear the line.
* **PROC002** — callables submitted to a ``ProcessPoolExecutor`` must
  be module-level: lambdas, nested functions and bound methods either
  fail to pickle or drag the enclosing object across the process
  boundary.
* **PROC003** — ``ProcessPoolExecutor`` is constructed in exactly one
  place, :mod:`repro.parallel.backends`; every other module dispatches
  through an :class:`~repro.parallel.backends.ExecutorBackend`.  A raw
  pool at a fan-out site silently bypasses backend selection, the
  single-worker serial fallback and the worker-tracer plumbing.
* **API001** — library code raises :mod:`repro.errors` types; bare
  ``raise Exception`` gives callers nothing to catch and ``assert``
  disappears under ``python -O``.
* **OBS001** — ``repro_*`` metric instruments are declared only in
  :mod:`repro.observe.catalog`; a counter/gauge/histogram created at a
  call site can silently fork the namespace (name drift, mismatched
  label sets) and escape the DESIGN.md §17 inventory.

Rules are intentionally small (the engine carries the traversal,
import resolution and scope bookkeeping); adding one is ~30 lines —
subclass :class:`~repro.lint.engine.Rule`, declare ``node_types``,
implement ``visit``, append it to :data:`DEFAULT_RULES`.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.engine import FileContext, Rule

#: Module prefixes whose outputs feed content fingerprints.  The
#: observability layer, the CLI and the linter itself are deliberately
#: outside: wall time there is the point, not a hazard.
DETERMINISTIC_ZONES: Tuple[str, ...] = (
    "repro.cells",
    "repro.characterization",
    "repro.core",
    "repro.experiments",
    "repro.flow",
    "repro.kernels",
    "repro.liberty",
    "repro.netlist",
    "repro.parallel",
    "repro.sta",
    "repro.statlib",
    "repro.synth",
    "repro.variation",
)

#: Wall-clock reads that make a value differ between two identical runs.
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: ``random`` module functions backed by the hidden global generator.
GLOBAL_RANDOM_CALLS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "normalvariate", "paretovariate", "randbytes",
    "randint", "random", "randrange", "sample", "seed", "shuffle",
    "triangular", "uniform", "vonmisesvariate",
})

#: ``numpy.random`` module functions backed by the legacy global state.
GLOBAL_NUMPY_CALLS = frozenset({
    "beta", "binomial", "choice", "exponential", "gamma", "get_state",
    "lognormal", "normal", "permutation", "poisson", "rand", "randint",
    "randn", "random", "random_sample", "seed", "set_state", "shuffle",
    "standard_normal", "uniform",
})

#: Function-name shapes that mark a fingerprint/cache-key computation.
_FINGERPRINT_NAME = re.compile(
    r"(fingerprint|digest|hash|sha\d|blake2|md5)|(^|_)key$", re.IGNORECASE
)


def _in_deterministic_zone(module: str) -> bool:
    """Whether a dotted module lies in a DET001 zone."""
    return any(
        module == zone or module.startswith(zone + ".")
        for zone in DETERMINISTIC_ZONES
    )


class Det001WallClockAndGlobalRng(Rule):
    """DET001: no wall clock / global RNG in deterministic zones."""

    rule_id = "DET001"
    title = "wall-clock or unseeded RNG in a deterministic zone"
    hint = (
        "thread the value in from outside the fingerprinted stage, or "
        "use a seeded numpy Generator (np.random.default_rng(seed))"
    )
    rationale = (
        "characterization kernels, flow stages and everything feeding "
        "ArtifactStore keys must be pure functions of their inputs — a "
        "wall-clock read or a draw from hidden global RNG state makes "
        "two identical runs disagree and silently poisons the "
        "content-addressed store"
    )
    node_types = (ast.Call,)

    def applies_to(self, context: FileContext) -> bool:
        """Only the fingerprint-feeding zones are held to DET001."""
        return _in_deterministic_zone(context.module)

    def visit(self, node: ast.Call, context: FileContext) -> None:
        """Flag wall-clock reads and global/unseeded RNG calls."""
        name, known = context.resolved_call_name(node)
        if name is None or not known:
            return
        if name in WALL_CLOCK_CALLS:
            context.report(
                self, node,
                f"wall-clock read '{name}()' inside deterministic zone "
                f"'{context.module}'",
            )
            return
        head, _, attr = name.rpartition(".")
        if head == "random" and attr in GLOBAL_RANDOM_CALLS:
            context.report(
                self, node,
                f"global-state RNG call 'random.{attr}()' inside "
                f"deterministic zone '{context.module}'",
            )
        elif head == "random" and attr == "Random" and not (
            node.args or node.keywords
        ):
            context.report(
                self, node,
                "unseeded 'random.Random()' inside deterministic zone "
                f"'{context.module}'",
            )
        elif head == "numpy.random" and attr in GLOBAL_NUMPY_CALLS:
            context.report(
                self, node,
                f"global-state RNG call 'numpy.random.{attr}()' inside "
                f"deterministic zone '{context.module}'",
            )
        elif (
            name in ("numpy.random.default_rng", "numpy.random.RandomState")
            and not (node.args or node.keywords)
        ):
            context.report(
                self, node,
                f"unseeded '{name}()' inside deterministic zone "
                f"'{context.module}'",
            )


class Det002UnorderedFingerprintInput(Rule):
    """DET002: no unordered iteration feeding hashes or fingerprints."""

    rule_id = "DET002"
    title = "unordered iteration feeding a fingerprint"
    hint = "wrap the iterable in sorted(...) before it reaches the digest"
    rationale = (
        "set iteration order depends on insertion history and hash "
        "seeds; dict.values() order on construction order — a "
        "fingerprint folded over either is not a function of the "
        "content it claims to address"
    )
    node_types = (ast.Call, ast.For, ast.comprehension)

    @staticmethod
    def _unordered_form(node: ast.AST, context: FileContext) -> Optional[str]:
        """Describe ``node`` when it yields unordered iteration."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set"
        if isinstance(node, ast.Call):
            name, _ = context.resolved_call_name(node)
            if name in ("set", "frozenset"):
                return f"{name}(...)"
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "values"
                and not node.args
            ):
                return ".values()"
        return None

    def _in_fingerprint_scope(self, context: FileContext) -> bool:
        return any(
            _FINGERPRINT_NAME.search(name)
            for name in context.scope_functions()
        )

    def visit(self, node: ast.AST, context: FileContext) -> None:
        """Flag unordered iterables at hash sinks or in hash scopes."""
        if isinstance(node, ast.Call):
            name, _ = context.resolved_call_name(node)
            if name is None or not _FINGERPRINT_NAME.search(
                name.rpartition(".")[2]
            ):
                return
            for argument in node.args:
                form = self._unordered_form(argument, context)
                if form:
                    context.report(
                        self, argument,
                        f"{form} passed to '{name}(...)' — unordered "
                        "iteration feeding a fingerprint",
                    )
            return
        # ast.For / ast.comprehension: only inside fingerprint-shaped
        # functions, where the loop body almost certainly feeds the
        # digest being built.
        if not self._in_fingerprint_scope(context):
            return
        iterable = node.iter
        form = self._unordered_form(iterable, context)
        if form:
            function = context.scope_functions()[-1]
            context.report(
                self, iterable,
                f"iteration over {form} inside fingerprint function "
                f"'{function}'",
            )


class Proc001SingleShotAppend(Rule):
    """PROC001: one write call per record on shared append-mode files."""

    rule_id = "PROC001"
    title = "multi-call write to a shared append-mode file"
    hint = (
        "build the full record (line + newline) first, then emit it "
        "with a single write/os.write call"
    )
    rationale = (
        "POSIX O_APPEND makes ONE write atomic; a record emitted as "
        "two writes can interleave with another process's record and "
        "tear the JSONL file"
    )
    node_types = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)

    @staticmethod
    def _scope_walk(body: List[ast.stmt]) -> "List[ast.AST]":
        """Every node in ``body`` without descending into nested defs.

        Each function is scanned exactly once — when the engine visits
        its own ``FunctionDef`` node — so the module-level scan must
        not reach inside it.
        """
        nodes: List[ast.AST] = []

        def walk(node: ast.AST) -> None:
            nodes.append(node)
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return
            for child in ast.iter_child_nodes(node):
                walk(child)

        for statement in body:
            walk(statement)
        return nodes

    @staticmethod
    def _append_mode(call: ast.Call, context: FileContext) -> bool:
        """Whether ``call`` is ``open(...)`` in an append mode."""
        name, _ = context.resolved_call_name(call)
        if name not in ("open", "io.open", "pathlib.Path.open"):
            return False
        mode: Optional[ast.expr] = None
        if len(call.args) >= 2:
            mode = call.args[1]
        for keyword in call.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        return (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and "a" in mode.value
        )

    @staticmethod
    def _append_fd_assignment(node: ast.AST, context: FileContext) -> Optional[str]:
        """Name bound by ``x = os.open(..., O_APPEND...)``, if any."""
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            return None
        name, _ = context.resolved_call_name(node.value)
        if name != "os.open":
            return None
        flags = " ".join(
            context.dotted_name(sub) or ""
            for argument in node.value.args
            for sub in ast.walk(argument)
        )
        return node.targets[0].id if "O_APPEND" in flags else None

    def _scan_writes(
        self,
        body: List[ast.stmt],
        handles: Set[str],
        fds: Set[str],
        context: FileContext,
    ) -> None:
        """Count write calls per handle within one straight-line body."""
        counts: Dict[str, List[ast.AST]] = {}

        def record(name: str, node: ast.AST, in_loop: bool) -> None:
            counts.setdefault(name, []).append(node)
            if in_loop:
                context.report(
                    self, node,
                    f"write to append-mode handle '{name}' inside a "
                    "loop — each loop iteration must be its own "
                    "single-shot append",
                )
            elif len(counts[name]) == 2:
                context.report(
                    self, node,
                    f"second write to append-mode handle '{name}' in "
                    "one block — a record split over several writes "
                    "can tear under concurrent appenders",
                )

        def walk(node: ast.AST, in_loop: bool) -> None:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("write", "writelines")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in handles
                ):
                    record(node.func.value.id, node, in_loop)
                else:
                    name, _ = context.resolved_call_name(node)
                    if (
                        name == "os.write"
                        and node.args
                        and isinstance(node.args[0], ast.Name)
                        and node.args[0].id in fds
                    ):
                        record(node.args[0].id, node, in_loop)
            entering_loop = in_loop or isinstance(
                node, (ast.For, ast.AsyncFor, ast.While)
            )
            for child in ast.iter_child_nodes(node):
                walk(child, entering_loop)

        for statement in body:
            walk(statement, False)

    def visit(self, node: ast.AST, context: FileContext) -> None:
        """Scan one function (or the module body) for torn appends."""
        body = getattr(node, "body", [])
        scope = self._scope_walk(body)
        fds: Set[str] = set()
        for sub in scope:
            fd_name = self._append_fd_assignment(sub, context)
            if fd_name:
                fds.add(fd_name)
        if fds:
            self._scan_writes(body, set(), fds, context)
        for sub in scope:
            if isinstance(sub, ast.With):
                handles = {
                    item.optional_vars.id
                    for item in sub.items
                    if isinstance(item.context_expr, ast.Call)
                    and self._append_mode(item.context_expr, context)
                    and isinstance(item.optional_vars, ast.Name)
                }
                if handles:
                    self._scan_writes(sub.body, handles, set(), context)


class Proc002ModuleLevelExecutorCallables(Rule):
    """PROC002: executor-submitted callables must be module-level."""

    rule_id = "PROC002"
    title = "non-picklable callable submitted to a process pool"
    hint = (
        "hoist the callable to module level and pass its inputs as "
        "arguments (functools.partial over a module-level function is "
        "fine)"
    )
    rationale = (
        "ProcessPoolExecutor pickles the callable by qualified name: "
        "lambdas and nested functions fail outright, and bound methods "
        "drag their whole instance across the process boundary on "
        "every task"
    )
    node_types = (ast.With, ast.Assign, ast.Call)

    _EXECUTOR_TYPES = (
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
    )

    def _executors(self, context: FileContext) -> Set[str]:
        return context.state.setdefault(self.rule_id, {}).setdefault(
            "executors", set()
        )

    def _is_executor_call(self, node: ast.AST, context: FileContext) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name, known = context.resolved_call_name(node)
        return known and name in self._EXECUTOR_TYPES

    def _check_callable(
        self, node: ast.expr, context: FileContext, method: str
    ) -> None:
        if isinstance(node, ast.Lambda):
            context.report(
                self, node,
                f"lambda passed to ProcessPoolExecutor.{method}() — "
                "lambdas cannot be pickled",
            )
            return
        if isinstance(node, ast.Name):
            if node.id in context.nested_defs and (
                node.id not in context.module_defs
            ):
                context.report(
                    self, node,
                    f"nested function '{node.id}' passed to "
                    f"ProcessPoolExecutor.{method}() — only "
                    "module-level callables survive pickling",
                )
            return
        if isinstance(node, ast.Call):
            name, _ = context.resolved_call_name(node)
            if name in ("functools.partial", "partial") and node.args:
                self._check_callable(node.args[0], context, method)
            return
        if isinstance(node, ast.Attribute):
            dotted = context.dotted_name(node)
            if dotted is None:
                context.report(
                    self, node,
                    f"computed attribute passed to "
                    f"ProcessPoolExecutor.{method}() — submit a "
                    "module-level callable instead",
                )
                return
            head = dotted.partition(".")[0]
            if head in context.module_aliases:
                return  # module.function — picklable by qualified name
            context.report(
                self, node,
                f"bound or instance attribute '{dotted}' passed to "
                f"ProcessPoolExecutor.{method}() — it pickles the "
                "whole instance (or fails); submit a module-level "
                "callable",
            )

    def visit(self, node: ast.AST, context: FileContext) -> None:
        """Track executor bindings and check submitted callables."""
        if isinstance(node, ast.With):
            for item in node.items:
                if self._is_executor_call(
                    item.context_expr, context
                ) and isinstance(item.optional_vars, ast.Name):
                    self._executors(context).add(item.optional_vars.id)
            return
        if isinstance(node, ast.Assign):
            if self._is_executor_call(node.value, context):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._executors(context).add(target.id)
            return
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("submit", "map")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self._executors(context)
            and node.args
        ):
            self._check_callable(node.args[0], context, node.func.attr)


class Proc003BackendDispatchOnly(Rule):
    """PROC003: process pools are built only by the backends module."""

    rule_id = "PROC003"
    title = "raw ProcessPoolExecutor outside repro.parallel.backends"
    hint = (
        "dispatch through repro.parallel.backends.resolve_backend(...)."
        "map_tasks(fn, tasks) instead of constructing a pool"
    )
    rationale = (
        "every fan-out site must honor the configured ExecutorBackend "
        "(FlowConfig(backend=...) / REPRO_BACKEND / --backend); a raw "
        "ProcessPoolExecutor bypasses backend selection, the "
        "single-worker serial fallback and the worker-tracer capture "
        "that merges worker spans into the parent trace"
    )
    node_types = (ast.Call,)

    #: The one module allowed to construct pools (it *implements* the
    #: process backend).
    _BACKENDS_MODULE = "repro.parallel.backends"

    _EXECUTOR_TYPES = (
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
    )

    def applies_to(self, context: FileContext) -> bool:
        """Every library module except the backends implementation."""
        return (
            context.module == "repro" or context.module.startswith("repro.")
        ) and context.module != self._BACKENDS_MODULE

    def visit(self, node: ast.Call, context: FileContext) -> None:
        """Flag any ProcessPoolExecutor construction."""
        name, known = context.resolved_call_name(node)
        if known and name in self._EXECUTOR_TYPES:
            context.report(
                self, node,
                f"ProcessPoolExecutor constructed in '{context.module}' — "
                "fan out through an ExecutorBackend (see "
                "repro.parallel.backends)",
            )


class Api001ErrorDiscipline(Rule):
    """API001: library errors go through :mod:`repro.errors`."""

    rule_id = "API001"
    title = "bare Exception or assert in library code"
    hint = (
        "raise the matching repro.errors type (or add one); replace "
        "'assert cond' with 'if not cond: raise ...'"
    )
    rationale = (
        "callers embedding the library catch ReproError; a bare "
        "'raise Exception' escapes that net, and asserts are stripped "
        "under 'python -O', silently disabling the check"
    )
    node_types = (ast.Raise, ast.Assert)

    def applies_to(self, context: FileContext) -> bool:
        """Library modules only (snippets outside ``repro`` are exempt)."""
        return context.module == "repro" or context.module.startswith("repro.")

    def visit(self, node: ast.AST, context: FileContext) -> None:
        """Flag ``assert`` statements and generic raises."""
        if isinstance(node, ast.Assert):
            context.report(
                self, node,
                "assert in library code — stripped under 'python -O'; "
                "raise a repro.errors type instead",
            )
            return
        exception = node.exc
        if exception is None:
            return  # bare re-raise inside an except block
        target = exception.func if isinstance(exception, ast.Call) else exception
        name = context.dotted_name(target)
        if name in ("Exception", "BaseException"):
            context.report(
                self, node,
                f"raise of bare '{name}' in library code — callers "
                "catch repro.errors.ReproError subclasses",
            )


class Obs001MetricCatalogOnly(Rule):
    """OBS001: ``repro_*`` metrics are declared only in the catalog."""

    rule_id = "OBS001"
    title = "repro_* metric created outside repro.observe.catalog"
    hint = (
        "declare the instrument in repro.observe.catalog and import it; "
        "the catalog is the single source of truth DESIGN.md §17 "
        "documents"
    )
    rationale = (
        "the metric namespace is closed: every repro_* instrument lives "
        "in repro.observe.catalog so names, label sets and bucket "
        "layouts can never drift between call sites, and the DESIGN.md "
        "§17 catalog stays an exhaustive inventory of what /metrics "
        "exposes"
    )
    node_types = (ast.Call,)

    #: Modules allowed to create repro_* instruments: the catalog (the
    #: declarations themselves) and the registry implementation.
    _ALLOWED_MODULES = ("repro.observe.catalog", "repro.observe.metrics")

    _FACTORY_NAMES = ("counter", "gauge", "histogram")

    def applies_to(self, context: FileContext) -> bool:
        """Library modules, minus the catalog/registry themselves."""
        return (
            context.module == "repro" or context.module.startswith("repro.")
        ) and context.module not in self._ALLOWED_MODULES

    def visit(self, node: ast.Call, context: FileContext) -> None:
        """Flag ``*.counter("repro_...")`` (and gauge/histogram)."""
        func = node.func
        if isinstance(func, ast.Attribute):
            factory = func.attr
        elif isinstance(func, ast.Name):
            factory = func.id
        else:
            return
        if factory not in self._FACTORY_NAMES or not node.args:
            return
        first = node.args[0]
        if not (
            isinstance(first, ast.Constant)
            and isinstance(first.value, str)
            and first.value.startswith("repro_")
        ):
            return
        context.report(
            self, node,
            f"metric {first.value!r} created in '{context.module}' — "
            "declare it in repro.observe.catalog and import the "
            "instrument",
        )


#: The rule set ``python -m repro lint`` runs by default.
DEFAULT_RULES: Tuple[Rule, ...] = (
    Det001WallClockAndGlobalRng(),
    Det002UnorderedFingerprintInput(),
    Proc001SingleShotAppend(),
    Proc002ModuleLevelExecutorCallables(),
    Proc003BackendDispatchOnly(),
    Api001ErrorDiscipline(),
    Obs001MetricCatalogOnly(),
)


def rule_catalog() -> List[Dict[str, str]]:
    """Metadata of every default rule (the ``--list-rules`` payload)."""
    return [
        {
            "id": rule.rule_id,
            "title": rule.title,
            "severity": rule.severity,
            "rationale": rule.rationale,
            "hint": rule.hint,
        }
        for rule in DEFAULT_RULES
    ]
