"""The whole-program model the graph rules run on.

One :class:`ProgramGraph` represents a parsed source tree: every
module, every class with its inferred attribute types, every function
(module-level, method, nested, async or not) with its resolved call
sites and state mutations, plus the module-level import edges the
layering rule checks.

Resolution keys are plain strings:

* ``"repro.flow.pipeline:run"`` — a module-level function;
* ``"repro.serve.handlers:TuningService.tune"`` — a method;
* ``"repro.serve.handlers:TuningService.tune.<locals>.probe"`` — a
  nested function (only reachable when called by name);
* ``"repro.parallel.artifacts:ArtifactStore"`` — a class (also the
  key format for inferred types);
* ``"ext:pathlib.Path.glob"`` — an external dotted name, fully
  alias-expanded;
* ``"?:<dotted>"`` — a name the builder could not ground (rules treat
  these as opaque: never blocking, never deterministic, never a sink).

Everything here is a value object: building happens in
:mod:`repro.lint.graph.builder`, judging in
:mod:`repro.lint.graph.rules`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

#: Prefix marking an external (non-tree) resolution key.
EXTERNAL = "ext:"

#: Prefix marking an unresolvable name (opaque to every rule).
UNKNOWN = "?:"


def external(dotted: str) -> str:
    """The resolution key of an external dotted name."""
    return EXTERNAL + dotted


def unknown(dotted: str) -> str:
    """The resolution key of a name that could not be grounded."""
    return UNKNOWN + dotted


def is_internal(key: str) -> bool:
    """Whether a resolution key points inside the analyzed tree."""
    return not (key.startswith(EXTERNAL) or key.startswith(UNKNOWN))


@dataclass
class CallSite:
    """One call expression inside a function body."""

    #: Resolution key of the call target (see the module docstring).
    callee: str
    line: int
    column: int
    #: The call appears inside a ``return`` expression — the channel
    #: DET003 propagates nondeterminism through.
    in_return: bool = False
    #: The call is lexically inside a ``with <...>.lock:`` block.
    under_lock: bool = False
    #: Resolution keys of arguments that are themselves direct calls
    #: (``sink(f(x))``), in positional order.
    arg_calls: List[str] = field(default_factory=list)
    #: Plain ``Name`` arguments (``sink(value)``), for local
    #: assignment tracking in DET003.
    arg_names: List[str] = field(default_factory=list)


@dataclass
class Mutation:
    """One write to attribute state (``recv.attr = ...``, ``recv.attr
    += ...``, ``recv.attr[k] = ...`` or ``recv.attr.append(...)``)."""

    #: Root receiver: ``"self"`` or the local/parameter name.
    receiver: str
    #: Inferred type key of the receiver (``""`` when unknown; for
    #: ``self`` this is the enclosing class key).
    receiver_type: str
    #: The attribute written through.
    attr: str
    line: int
    column: int
    under_lock: bool = False


@dataclass
class FunctionNode:
    """One function/method/nested def in the program."""

    #: Full resolution key (``module:qualname``).
    key: str
    module: str
    #: Dotted name inside the module (``Class.method``,
    #: ``outer.<locals>.inner``).
    qualname: str
    line: int
    is_async: bool = False
    #: Not a module-level def and not a class method — only reachable
    #: when called by name inside its enclosing function.
    is_nested: bool = False
    #: Key of the enclosing class for methods, else ``""``.
    class_key: str = ""
    #: Resolved key of the annotated return type (``Optional[X]`` and
    #: ``X | None`` unwrap to ``X``); ``""`` when unannotated.
    return_type: str = ""
    calls: List[CallSite] = field(default_factory=list)
    mutations: List[Mutation] = field(default_factory=list)
    #: Local names assigned from a single direct call
    #: (``x = f(...)`` -> ``{"x": key_of_f}``); best-effort, last
    #: assignment wins.
    var_sources: Dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """The bare function name (last qualname segment)."""
        return self.qualname.rpartition(".")[2]


@dataclass
class ClassNode:
    """One class definition with its inferred attribute types."""

    #: Full resolution key (``module:Name``).
    key: str
    module: str
    name: str
    line: int
    #: Method name -> function key.
    methods: Dict[str, str] = field(default_factory=dict)
    #: ``self.attr`` -> inferred type key (class key or external).
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: Attributes assigned a ``threading.Lock()``/``RLock()``.
    lock_attrs: List[str] = field(default_factory=list)


@dataclass
class ImportEdge:
    """One module-level ``import``/``from ... import`` of a tree module."""

    target: str
    line: int


@dataclass
class ModuleNode:
    """One parsed source file."""

    name: str
    #: Repo-relative posix path (what findings report).
    path: str
    #: Module-level imports of other tree modules (ARCH001's graph).
    imports: List[ImportEdge] = field(default_factory=list)
    #: Line -> suppressed rule ids (``# repro: noqa[...]``).
    noqa: Dict[int, List[str]] = field(default_factory=dict)
    #: Whole-file suppressions (``# repro: noqa-file[...]``).
    noqa_file: List[str] = field(default_factory=list)
    #: Module-level names with inferrable types (annotated constants).
    var_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ProgramGraph:
    """The whole analyzed tree, ready for the graph rules."""

    modules: Dict[str, ModuleNode] = field(default_factory=dict)
    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    classes: Dict[str, ClassNode] = field(default_factory=dict)
    #: Files that failed to parse: path -> (line, message).
    syntax_errors: Dict[str, Tuple[int, str]] = field(default_factory=dict)

    # -- lookups -------------------------------------------------------

    def callers_of(self, key: str) -> List[Tuple[FunctionNode, CallSite]]:
        """Every call site in the graph resolving to ``key``."""
        sites: List[Tuple[FunctionNode, CallSite]] = []
        for function in self.functions.values():
            for site in function.calls:
                if site.callee == key:
                    sites.append((function, site))
        return sites

    def import_graph(self) -> Dict[str, Set[str]]:
        """Module-level edges between tree modules."""
        graph: Dict[str, Set[str]] = {}
        for name, node in self.modules.items():
            graph[name] = {
                edge.target
                for edge in node.imports
                if edge.target in self.modules
            }
        return graph
