"""The cross-file rule catalog (see DESIGN.md §18).

Each rule judges the whole :class:`~repro.lint.graph.model.ProgramGraph`
at once — the per-file engine cannot see these invariants:

* **ASYNC001** — nothing reachable from an ``async def`` in
  ``repro.serve`` may block the event loop: no ``time.sleep``, no sync
  file/socket/subprocess I/O, and no call into a repro function whose
  transitive closure does any of those.  Only :class:`ast.Call` edges
  propagate, so handing a callable *to an executor*
  (``await asyncio.to_thread(fn)``) is a safe boundary by construction.
* **LOCK001** — an attribute that is mutated under a ``lock``/``_lock``
  acquisition anywhere in its class is lock-guarded state; every other
  mutation of it must either sit under the lock lexically or be
  *lock-dominated* — every call path into the mutating function holds
  the lock at the call site (how ``JsonlExporter._ensure_open``
  stays legal: ``write()`` calls it inside ``with self._lock``, and
  ``__init__`` runs before the object is shared).
* **DET003** — the interprocedural half of DET002: a function whose
  return value derives from wall clock or global RNG (directly or
  through further calls) is a nondeterminism *source*; its value may
  not be passed into a fingerprint/digest/hash sink in a deterministic
  zone, no matter how many modules sit in between.
* **ARCH001** — the layering declared under ``[tool.repro-lint]`` in
  ``pyproject.toml`` is enforced on the module-level import graph: a
  module may import its own layer and below, never above, and import
  cycles are reported per strongly-connected component.

Rules report through the ordinary :class:`~repro.lint.findings.Finding`
type, so baselines, ``# repro: noqa[...]`` / ``noqa-file[...]`` and
every output format apply unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.graph.model import (
    CallSite,
    FunctionNode,
    ModuleNode,
    ProgramGraph,
    is_internal,
)
from repro.lint.rules import (
    _FINGERPRINT_NAME,
    DETERMINISTIC_ZONES,
    GLOBAL_NUMPY_CALLS,
    GLOBAL_RANDOM_CALLS,
    WALL_CLOCK_CALLS,
)

#: External callables that block the calling thread outright.
_BLOCKING_EXACT = frozenset({
    "time.sleep",
    "open", "io.open", "builtins.open", "input",
    "socket.create_connection", "socket.getaddrinfo",
    "socket.gethostbyname", "socket.socket",
    "urllib.request.urlopen",
    "os.open", "os.write", "os.read", "os.fsync", "os.stat",
    "os.listdir", "os.scandir", "os.walk", "os.mkdir", "os.makedirs",
    "os.remove", "os.unlink", "os.rename", "os.replace", "os.rmdir",
    "os.path.getsize", "os.path.getmtime", "os.path.exists",
    "os.path.isfile", "os.path.isdir",
})

#: Library prefixes that are sync I/O wholesale.
_BLOCKING_PREFIXES = (
    "subprocess.", "requests.", "shutil.", "tempfile.", "gzip.",
    "sqlite3.", "http.client.", "ftplib.", "smtplib.",
)

#: ``pathlib.Path`` methods that hit the filesystem.
_BLOCKING_PATH_METHODS = frozenset({
    "open", "read_text", "read_bytes", "write_text", "write_bytes",
    "glob", "rglob", "iterdir", "stat", "lstat", "exists", "is_dir",
    "is_file", "mkdir", "unlink", "rename", "replace", "touch",
    "resolve", "rmdir", "samefile", "hardlink_to", "symlink_to",
    "chmod", "owner", "group", "readlink",
})


def _is_blocking_external(key: str) -> bool:
    """Whether an ``ext:`` key names a thread-blocking callable."""
    if not key.startswith("ext:"):
        return False
    name = key[4:]
    if name in _BLOCKING_EXACT:
        return True
    if name.startswith(_BLOCKING_PREFIXES):
        return True
    if name.startswith("pathlib.Path."):
        return name.rpartition(".")[2] in _BLOCKING_PATH_METHODS
    return False


def _is_nondet_external(key: str) -> bool:
    """Whether an ``ext:`` key reads wall clock or global RNG state."""
    if not key.startswith("ext:"):
        return False
    name = key[4:]
    if name in WALL_CLOCK_CALLS:
        return True
    head, _, tail = name.rpartition(".")
    if head == "random" and tail in GLOBAL_RANDOM_CALLS:
        return True
    if head == "numpy.random" and tail in GLOBAL_NUMPY_CALLS:
        return True
    return name in ("uuid.uuid1", "uuid.uuid4", "os.urandom", "secrets.token_hex")


def _display(key: str) -> str:
    """Human-readable form of a resolution key."""
    if key.startswith("ext:") or key.startswith("?:"):
        return key.partition(":")[2]
    module, _, qual = key.partition(":")
    return f"{module}.{qual}" if qual else module


def _suppressed(module: Optional[ModuleNode], line: int, rule_id: str) -> bool:
    if module is None:
        return False
    if rule_id in module.noqa_file:
        return True
    return rule_id in module.noqa.get(line, [])


@dataclass
class GraphSettings:
    """Per-repo configuration the graph rules read.

    Loaded from ``[tool.repro-lint]`` in ``pyproject.toml`` by
    :func:`repro.lint.graph.layers.load_graph_settings`; tests pass it
    directly.
    """

    #: Ordered layer groups, lowest first; each entry lists package
    #: prefixes that share the layer.  A module may import its own
    #: layer and below.  Empty -> ARCH001 only reports cycles.
    layers: List[List[str]] = field(default_factory=list)
    #: Packages whose ``async def`` bodies ASYNC001 polices.
    async_packages: Tuple[str, ...] = ("repro.serve",)
    #: Packages whose fingerprint sinks DET003 polices.
    det_packages: Tuple[str, ...] = DETERMINISTIC_ZONES + ("repro.serve",)


class GraphRule:
    """Base class for whole-program rules."""

    rule_id: str = "GRAPH000"
    title: str = ""
    severity: str = "error"
    hint: str = ""
    rationale: str = ""

    def check(
        self, graph: ProgramGraph, settings: GraphSettings
    ) -> List[Finding]:
        """Judge the whole program; return unsuppressed findings."""
        raise NotImplementedError

    def _report(
        self,
        graph: ProgramGraph,
        out: List[Finding],
        module_name: str,
        line: int,
        column: int,
        message: str,
    ) -> None:
        module = graph.modules.get(module_name)
        if module is None or _suppressed(module, line, self.rule_id):
            return
        out.append(
            Finding(
                path=module.path,
                line=line,
                column=column,
                rule_id=self.rule_id,
                message=message,
                hint=self.hint,
                severity=self.severity,
            )
        )


def _in_packages(module: str, packages: Sequence[str]) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in packages
    )


# ---------------------------------------------------------------------------
# ASYNC001


class Async001BlockingInCoroutine(GraphRule):
    """ASYNC001: no blocking work reachable from a serve coroutine."""

    rule_id = "ASYNC001"
    title = "blocking call reachable from an async def"
    hint = (
        "hop the blocking work off the loop with "
        "`await asyncio.to_thread(fn, ...)` (only the function "
        "reference crosses; the call happens in the executor)"
    )
    rationale = (
        "one sync disk read inside a serve coroutine stalls every "
        "in-flight request on the event loop; the call graph makes "
        "transitively-blocking helpers visible at the await site"
    )

    def check(
        self, graph: ProgramGraph, settings: GraphSettings
    ) -> List[Finding]:
        """Flag async defs in the watched packages that reach blocking calls."""
        blocking = self._blocking_closure(graph)
        findings: List[Finding] = []
        for key in sorted(graph.functions):
            function = graph.functions[key]
            if not function.is_async:
                continue
            if not _in_packages(function.module, settings.async_packages):
                continue
            for site in function.calls:
                chain = self._offending_chain(site.callee, graph, blocking)
                if chain is None:
                    continue
                callee = graph.functions.get(site.callee)
                if callee is not None and callee.is_async:
                    # The async callee is flagged at its own site;
                    # re-reporting every awaiter would just repeat it.
                    continue
                self._report(
                    graph,
                    findings,
                    function.module,
                    site.line,
                    site.column,
                    f"async '{function.qualname}' reaches blocking call: "
                    + " -> ".join(chain),
                )
        return findings

    def _blocking_closure(
        self, graph: ProgramGraph
    ) -> Dict[str, Tuple[str, int]]:
        """Internal key -> (witness callee key, line) fixpoint."""
        blocking: Dict[str, Tuple[str, int]] = {}
        changed = True
        while changed:
            changed = False
            for key in sorted(graph.functions):
                if key in blocking:
                    continue
                function = graph.functions[key]
                for site in function.calls:
                    if (
                        _is_blocking_external(site.callee)
                        or site.callee in blocking
                    ):
                        blocking[key] = (site.callee, site.line)
                        changed = True
                        break
        return blocking

    def _offending_chain(
        self,
        callee: str,
        graph: ProgramGraph,
        blocking: Dict[str, Tuple[str, int]],
    ) -> Optional[List[str]]:
        """Witness chain from a call edge down to the blocking leaf."""
        if _is_blocking_external(callee):
            return [_display(callee)]
        if callee not in blocking:
            return None
        chain: List[str] = []
        key = callee
        for _ in range(6):
            chain.append(_display(key))
            if key not in blocking:
                break
            key, _line = blocking[key]
            if _is_blocking_external(key):
                chain.append(_display(key))
                break
        else:
            chain.append("...")
        return chain


# ---------------------------------------------------------------------------
# LOCK001


class Lock001UnguardedMutation(GraphRule):
    """LOCK001: lock-guarded attributes stay under the lock."""

    rule_id = "LOCK001"
    title = "mutation of lock-guarded state outside the lock"
    hint = (
        "wrap the mutation in `with self.lock:` (or the owning "
        "object's lock), or make every caller hold the lock at the "
        "call site so the method is lock-dominated"
    )
    rationale = (
        "MetricsRegistry and the instrument children are shared "
        "across the serve event loop, worker threads and the sweep "
        "driver; one unlocked write races snapshot() and tears the "
        "exposition"
    )

    def check(
        self, graph: ProgramGraph, settings: GraphSettings
    ) -> List[Finding]:
        """Flag lock-guarded attribute mutations reachable without the lock."""
        guarded = self._guarded_attrs(graph)
        if not guarded:
            return []
        dominated = self._lock_dominated(graph)
        findings: List[Finding] = []
        for key in sorted(graph.functions):
            function = graph.functions[key]
            if function.name == "__init__":
                continue  # construction is single-threaded
            for mutation in function.mutations:
                attrs = guarded.get(mutation.receiver_type)
                if not attrs or mutation.attr not in attrs:
                    continue
                if mutation.under_lock:
                    continue
                if key in dominated:
                    continue
                lock_name = self._lock_name(graph, mutation.receiver_type)
                self._report(
                    graph,
                    findings,
                    function.module,
                    mutation.line,
                    mutation.column,
                    f"'{_display(mutation.receiver_type)}.{mutation.attr}'"
                    f" is guarded by '{lock_name}' elsewhere but mutated "
                    f"here without it (in '{function.qualname}', and not "
                    "every caller holds the lock)",
                )
        return findings

    @staticmethod
    def _lock_name(graph: ProgramGraph, class_key: str) -> str:
        klass = graph.classes.get(class_key)
        if klass is not None and klass.lock_attrs:
            return klass.lock_attrs[0]
        return "lock"

    @staticmethod
    def _guarded_attrs(graph: ProgramGraph) -> Dict[str, Set[str]]:
        """Class key -> attrs mutated under a lock in its methods."""
        guarded: Dict[str, Set[str]] = {}
        for function in graph.functions.values():
            if function.name == "__init__":
                continue
            for mutation in function.mutations:
                if not mutation.under_lock:
                    continue
                if not is_internal(mutation.receiver_type):
                    continue
                if not mutation.receiver_type:
                    continue
                guarded.setdefault(mutation.receiver_type, set()).add(
                    mutation.attr
                )
        return guarded

    @staticmethod
    def _lock_dominated(graph: ProgramGraph) -> Set[str]:
        """Functions whose every call path holds a lock at the site.

        Greatest fixpoint: start from "every function with at least
        one caller", then strip any function some caller reaches
        without the lock (unless that caller is itself dominated or an
        ``__init__`` — construction is single-threaded).
        """
        callers: Dict[str, List[Tuple[FunctionNode, CallSite]]] = {}
        for function in graph.functions.values():
            for site in function.calls:
                if site.callee in graph.functions:
                    callers.setdefault(site.callee, []).append(
                        (function, site)
                    )
        dominated = {key for key in graph.functions if key in callers}
        changed = True
        while changed:
            changed = False
            for key in sorted(dominated):
                for caller, site in callers.get(key, []):
                    if site.under_lock:
                        continue
                    if caller.name == "__init__":
                        continue
                    if caller.key in dominated:
                        continue
                    dominated.discard(key)
                    changed = True
                    break
        return dominated


# ---------------------------------------------------------------------------
# DET003


class Det003CrossModuleNondeterminism(GraphRule):
    """DET003: nondeterministic returns must not reach fingerprints."""

    rule_id = "DET003"
    title = "nondeterministic value flows into a fingerprint sink"
    hint = (
        "thread the value in from outside the fingerprinted "
        "computation, or derive it from the inputs (seeded Generator, "
        "content hash) instead of wall clock / global RNG"
    )
    rationale = (
        "DET001/DET002 see one file; a helper in another module that "
        "returns time.time() poisons every cache key built from it "
        "with no local evidence at the sink"
    )

    def check(
        self, graph: ProgramGraph, settings: GraphSettings
    ) -> List[Finding]:
        """Flag nondeterministic values flowing into fingerprint sinks."""
        sources = self._nondet_sources(graph)
        findings: List[Finding] = []
        for key in sorted(graph.functions):
            function = graph.functions[key]
            if not _in_packages(function.module, settings.det_packages):
                continue
            for site in function.calls:
                if not self._is_sink(site.callee):
                    continue
                for arg_key in site.arg_calls:
                    reason = self._nondet_reason(arg_key, sources)
                    if reason is not None:
                        self._flag(
                            graph, findings, function, site, arg_key, reason
                        )
                for name in site.arg_names:
                    source_key = function.var_sources.get(name)
                    if source_key is None:
                        continue
                    reason = self._nondet_reason(source_key, sources)
                    if reason is not None:
                        self._flag(
                            graph,
                            findings,
                            function,
                            site,
                            source_key,
                            reason,
                            via=name,
                        )
        return findings

    def _flag(
        self,
        graph: ProgramGraph,
        findings: List[Finding],
        function: FunctionNode,
        site: CallSite,
        source_key: str,
        reason: str,
        via: Optional[str] = None,
    ) -> None:
        carrier = f"'{via}' (from {_display(source_key)})" if via else (
            f"return of {_display(source_key)}"
        )
        self._report(
            graph,
            findings,
            function.module,
            site.line,
            site.column,
            f"fingerprint sink '{_display(site.callee)}' receives "
            f"{carrier}, which is nondeterministic ({reason})",
        )

    @staticmethod
    def _is_sink(callee: str) -> bool:
        name = _display(callee).rpartition(".")[2]
        return bool(name) and bool(_FINGERPRINT_NAME.search(name))

    @staticmethod
    def _nondet_reason(key: str, sources: Dict[str, str]) -> Optional[str]:
        if _is_nondet_external(key):
            return f"{_display(key)} differs between identical runs"
        return sources.get(key)

    @staticmethod
    def _nondet_sources(graph: ProgramGraph) -> Dict[str, str]:
        """Function key -> why its return value is nondeterministic."""
        sources: Dict[str, str] = {}
        changed = True
        while changed:
            changed = False
            for key in sorted(graph.functions):
                if key in sources:
                    continue
                function = graph.functions[key]
                for site in function.calls:
                    if not site.in_return:
                        continue
                    if _is_nondet_external(site.callee):
                        sources[key] = (
                            f"'{function.qualname}' in {function.module} "
                            f"returns {_display(site.callee)}"
                        )
                        changed = True
                        break
                    if site.callee in sources:
                        sources[key] = (
                            f"'{function.qualname}' in {function.module} "
                            f"forwards it: {sources[site.callee]}"
                        )
                        changed = True
                        break
        return sources


# ---------------------------------------------------------------------------
# ARCH001


class Arch001Layering(GraphRule):
    """ARCH001: the declared layering holds on the import graph."""

    rule_id = "ARCH001"
    title = "import violates the declared layering (or forms a cycle)"
    hint = (
        "depend downward only: move the shared piece below both "
        "parties, or invert the dependency with a protocol/callback "
        "(layer map lives in pyproject.toml [tool.repro-lint])"
    )
    rationale = (
        "the layer map is the repo's one-page architecture; an upward "
        "import couples the deterministic core to serve-side churn "
        "and an import cycle makes both halves untestable alone"
    )

    def check(
        self, graph: ProgramGraph, settings: GraphSettings
    ) -> List[Finding]:
        """Flag upward imports against the layer map, and import cycles."""
        findings: List[Finding] = []
        layer_of = self._layer_index(settings.layers)
        if layer_of:
            for name in sorted(graph.modules):
                module = graph.modules[name]
                importer_layer = self._layer(name, layer_of)
                if importer_layer is None:
                    continue
                for edge in module.imports:
                    if edge.target not in graph.modules:
                        continue
                    target_layer = self._layer(edge.target, layer_of)
                    if target_layer is None:
                        continue
                    if target_layer > importer_layer:
                        self._report(
                            graph,
                            findings,
                            name,
                            edge.line,
                            1,
                            f"'{name}' (layer {importer_layer}) imports "
                            f"'{edge.target}' (layer {target_layer}) — "
                            "modules may only import their own layer or "
                            "below",
                        )
        for cycle in self._cycles(graph):
            anchor = cycle[0]
            module = graph.modules[anchor]
            line = 1
            for edge in module.imports:
                if edge.target in cycle:
                    line = edge.line
                    break
            self._report(
                graph,
                findings,
                anchor,
                line,
                1,
                "import cycle: " + " -> ".join(cycle + [anchor]),
            )
        return findings

    @staticmethod
    def _layer_index(layers: List[List[str]]) -> Dict[str, int]:
        return {
            package: index
            for index, group in enumerate(layers)
            for package in group
        }

    @staticmethod
    def _layer(module: str, layer_of: Dict[str, int]) -> Optional[int]:
        best: Optional[Tuple[int, int]] = None
        for package, index in layer_of.items():
            if module == package or module.startswith(package + "."):
                candidate = (len(package), index)
                if best is None or candidate > best:
                    best = candidate
        return best[1] if best else None

    @staticmethod
    def _cycles(graph: ProgramGraph) -> List[List[str]]:
        """Non-trivial SCCs of the import graph (Tarjan, iterative)."""
        edges = graph.import_graph()
        index_of: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work: List[Tuple[str, Iterator[str]]] = []
            index_of[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            work.append((root, iter(sorted(edges.get(root, ())))))
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if child not in index_of:
                        index_of[child] = low[child] = counter[0]
                        counter[0] += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append(
                            (child, iter(sorted(edges.get(child, ()))))
                        )
                        advanced = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index_of[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index_of[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))

        for name in sorted(edges):
            if name not in index_of:
                strongconnect(name)
        return sorted(sccs)


#: The graph rules ``python -m repro lint --graph`` runs.
DEFAULT_GRAPH_RULES: Tuple[GraphRule, ...] = (
    Async001BlockingInCoroutine(),
    Lock001UnguardedMutation(),
    Det003CrossModuleNondeterminism(),
    Arch001Layering(),
)


def graph_rule_catalog() -> List[Dict[str, str]]:
    """Metadata of every graph rule (same shape as ``rule_catalog``)."""
    return [
        {
            "id": rule.rule_id,
            "title": rule.title,
            "severity": rule.severity,
            "rationale": rule.rationale,
            "hint": rule.hint,
        }
        for rule in DEFAULT_GRAPH_RULES
    ]


def run_graph_rules(
    graph: ProgramGraph,
    settings: Optional[GraphSettings] = None,
    rules: Sequence[GraphRule] = DEFAULT_GRAPH_RULES,
) -> List[Finding]:
    """Run every graph rule; findings come back sorted."""
    if settings is None:
        settings = GraphSettings()
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(graph, settings))
    return sorted(findings)
