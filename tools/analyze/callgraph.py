"""Conservative whole-program call graph over one Python package.

The graph is built from nothing but the AST — no imports of the analyzed
code are executed — and deliberately over-approximates: every resolution
rule either finds the real callee(s) or a superset of them, so downstream
fixpoint analyses (:mod:`tools.analyze.propagate`) stay sound *relative to
the documented blind spots*.  Resolution rules, in order:

* **Module symbol tables.**  Each module records its top-level defs,
  module-level string constants, and an import map with relative imports
  resolved against the package (``from ..errors import X`` in
  ``repro.sharding.engine`` binds ``X`` to ``repro.errors.X``).
* **Name calls** resolve through local nested defs, then module defs, then
  the import map.  ``functools.partial(f, ...)`` resolves to ``f``.
  Calling an internal class adds an edge to its ``__init__``.
* **Attribute calls** resolve receivers in this order: ``self`` (dispatch
  within the class hierarchy — the static class's MRO *plus* every
  transitive subclass override, so ``TemporalGraphSummary.insert_batch``
  calling ``self.insert`` reaches every summary implementation),
  ``self.<attr>`` via inferred attribute types, local variables via
  single-assignment inference (constructor calls, annotated returns,
  ``self.<attr>`` reads, one subscript unwrap), module aliases, and
  class names.
* **Worker-op indirection.**  A function whose body forwards a
  non-constant first argument into ``.submit(...)``/``.call(...)`` is an
  *op forwarder* (``ShardWorker.call``, ``ShardedSummary._scatter`` /
  ``_call_shard``).  At every call site of an op forwarder, string
  constants among the arguments (recursively through tuples/dicts/lists)
  are resolved as method names against the summary class hierarchy and
  recorded as ``indirect`` edges; reserved ``__op__`` names map to the
  worker internals and produce no edge.

Every call site additionally records the lexically held lock set (same
``_LOCKISH`` convention as CONC001) and the exception-handler context
(types caught by enclosing ``try`` bodies), which is what lets the
propagation layer filter escapes and anchor transitive-blocking reports.

Known unsoundness (documented here, tested in ``tests/test_callgraph.py``,
and summarized in ``docs/ARCHITECTURE.md``): decorators are assumed
identity-preserving; calls through untyped locals/parameters produce no
edge; containers deeper than one subscript are opaque; dynamic dispatch
via ``getattr`` is invisible.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .rules import _expr_key

#: Bump when graph semantics change so stale on-disk caches self-invalidate.
GRAPH_VERSION = "1"

_LOCKISH = re.compile(r"(^|_)(lock|mutex|state|cond|condition|sem|semaphore)s?\d*$")

#: Method names that park the calling thread when invoked on an *external*
#: receiver (queue/pipe/socket/condition objects).  Internal callees are
#: never matched syntactically — their bodies are analyzed instead, which
#: is exactly what makes ``InlineShardWorker.collect`` (a list pop)
#: non-blocking while ``ProcessShardWorker.collect`` (pipe ``poll``/``recv``)
#: blocks.
_BLOCKING_ATTRS = {"get", "put", "join", "collect", "sleep", "wait", "wait_for",
                   "recv", "recv_bytes", "select", "accept", "connect"}

#: Reserved worker ops handled by ``_apply_reserved``; they never dispatch
#: to summary methods, so they produce no indirect edge.
_RESERVED_OP = re.compile(r"^__\w+__$")


@dataclass
class ModuleTable:
    """Symbol table of one module: defs, imports, string constants."""

    name: str
    path: str
    is_package: bool
    defs: Dict[str, str] = field(default_factory=dict)
    imports: Dict[str, str] = field(default_factory=dict)
    constants: Dict[str, str] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    """One function or method node in the graph."""

    qname: str
    module: str
    path: str
    lineno: int
    name: str
    node: ast.AST
    cls: Optional[str] = None

    @property
    def short(self) -> str:
        """Symbol in per-file-rule style: ``Class.method`` or ``function``."""
        if self.cls:
            return f"{self.cls.rsplit('.', 1)[-1]}.{self.name}"
        return self.name


@dataclass
class ClassInfo:
    """One class: bases, methods, and inferred attribute types."""

    qname: str
    module: str
    path: str
    lineno: int
    name: str
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)
    #: attribute name -> type names (internal class qnames or external
    #: dotted names like ``threading.RLock``).
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)
    #: attribute name -> first assignment site ``(path, lineno)``.
    attr_sites: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: attribute name -> value-shape hazards (``lambda``, ``nested-def``,
    #: ``generator``, ``file-handle``) for pickle-safety analysis.
    attr_hazards: Dict[str, Set[str]] = field(default_factory=dict)
    #: internal classes returned by ``__call__`` (factory payload types).
    call_returns: Set[str] = field(default_factory=set)


@dataclass(frozen=True)
class CallSite:
    """One resolved caller→callee edge with its lexical context."""

    caller: str
    callee: str
    path: str
    lineno: int
    kind: str  # "direct" | "indirect"
    held: Tuple[str, ...] = ()
    handlers: Tuple[FrozenSet[str], ...] = ()


@dataclass(frozen=True)
class RaiseSite:
    """One potential exception source inside a function body.

    ``exc`` is a normalized name: a short ``repro.errors`` class name, a
    builtin exception name, or ``?`` for unresolvable raises (re-raised
    variables) which the analysis ignores by documented choice.
    """

    exc: str
    lineno: int
    handlers: Tuple[FrozenSet[str], ...] = ()
    desc: str = "raise"


@dataclass(frozen=True)
class BlockSite:
    """A syntactic blocking primitive (external receiver) in a function."""

    desc: str
    lineno: int
    held: Tuple[str, ...] = ()


@dataclass
class CallGraph:
    """The whole-program graph plus the per-function fact tables."""

    package: str
    root: str
    source_key: str
    modules: Dict[str, ModuleTable] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    calls: List[CallSite] = field(default_factory=list)
    raises: Dict[str, List[RaiseSite]] = field(default_factory=dict)
    blocks: Dict[str, List[BlockSite]] = field(default_factory=dict)
    subclasses: Dict[str, Set[str]] = field(default_factory=dict)
    #: factory classes observed flowing into a process/worker boundary
    #: (``make_shard_worker(...)`` / ``ProcessShardWorker(...)`` call sites).
    boundary_factories: Set[str] = field(default_factory=set)
    #: ``(caller qname, path, lineno)`` of lambda arguments crossing a
    #: worker ``submit``/``call`` boundary.
    submit_lambdas: List[Tuple[str, str, int]] = field(default_factory=list)

    def calls_by_caller(self) -> Dict[str, List[CallSite]]:
        """Index the edge list by caller qname."""
        index: Dict[str, List[CallSite]] = {}
        for site in self.calls:
            index.setdefault(site.caller, []).append(site)
        return index

    def is_internal(self, dotted: str) -> bool:
        """True when ``dotted`` names something inside the package."""
        return dotted == self.package or dotted.startswith(self.package + ".")

    def mro(self, class_qname: str) -> List[str]:
        """Linearized internal ancestry (simple DFS; good enough without
        multiple inheritance diamonds, which the package does not use)."""
        order: List[str] = []
        stack = [class_qname]
        while stack:
            current = stack.pop(0)
            if current in order or current not in self.classes:
                continue
            order.append(current)
            stack.extend(self.classes[current].bases)
        return order

    def resolve_method(self, class_qname: str, name: str) -> Optional[str]:
        """Method qname found by walking the internal MRO."""
        for ancestor in self.mro(class_qname):
            method = self.classes[ancestor].methods.get(name)
            if method:
                return method
        return None

    def transitive_subclasses(self, class_qname: str) -> Set[str]:
        """Every internal class below ``class_qname`` (exclusive)."""
        seen: Set[str] = set()
        stack = list(self.subclasses.get(class_qname, ()))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.subclasses.get(current, ()))
        return seen

    def dispatch(self, class_qname: str, name: str) -> Set[str]:
        """Conservative dynamic dispatch: the static class's resolution
        plus every subclass override."""
        targets: Set[str] = set()
        resolved = self.resolve_method(class_qname, name)
        if resolved:
            targets.add(resolved)
        for sub in self.transitive_subclasses(class_qname):
            override = self.classes[sub].methods.get(name)
            if override:
                targets.add(override)
        return targets


def source_fingerprint(files: Sequence[Tuple[str, str]]) -> str:
    """Stable hash over ``(relpath, source)`` pairs plus the graph version,
    used to key the on-disk call-graph cache."""
    digest = hashlib.sha256()
    digest.update(GRAPH_VERSION.encode())
    for rel, source in sorted(files):
        digest.update(rel.encode())
        digest.update(b"\x00")
        digest.update(source.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def _module_name(package: str, root: Path, file: Path) -> Tuple[str, bool]:
    rel = file.relative_to(root)
    parts = list(rel.parts)
    is_package = parts[-1] == "__init__.py"
    if is_package:
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][:-3]
    return ".".join([package, *parts]) if parts else package, is_package


def _resolve_relative(table: ModuleTable, level: int, target: Optional[str]) -> str:
    parts = table.name.split(".")
    if not table.is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    if target:
        parts = parts + target.split(".")
    return ".".join(parts)


def _collect_module_table(package: str, root: Path, file: Path,
                          tree: ast.Module, rel_path: str) -> ModuleTable:
    name, is_package = _module_name(package, root, file)
    table = ModuleTable(name=name, path=rel_path, is_package=is_package)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            table.defs[node.name] = f"{name}.{node.name}"
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                isinstance(node.value, ast.Constant) and \
                isinstance(node.value.value, str):
            table.constants[node.targets[0].id] = node.value.value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                table.imports[alias.asname or alias.name.split(".")[0]] = \
                    alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(table, node.level, node.module) \
                if node.level else (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                table.imports[alias.asname or alias.name] = f"{base}.{alias.name}"
    return table


class _Resolver:
    """Name resolution against one module's symbol table."""

    def __init__(self, graph: CallGraph, table: ModuleTable) -> None:
        self._graph = graph
        self._table = table

    def resolve(self, dotted: str) -> str:
        """Resolve the first component through defs/imports; keep the rest."""
        head, _, rest = dotted.partition(".")
        target = self._table.defs.get(head) or self._table.imports.get(head)
        if target is None:
            target = head if self._graph.is_internal(head) else head
        return self.canonicalize(f"{target}.{rest}" if rest else target)

    def canonicalize(self, dotted: str) -> str:
        """Follow re-export chains (``repro.observability.WindowedHistogram``
        imported from ``repro.observability.registry``) to the defining
        module's qname; bounded so import cycles cannot loop."""
        graph = self._graph
        for _ in range(10):
            if dotted in graph.classes or dotted in graph.functions or \
                    dotted in graph.modules or not graph.is_internal(dotted):
                return dotted
            parts = dotted.split(".")
            for i in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:i])
                if prefix in graph.modules:
                    table = graph.modules[prefix]
                    head = parts[i]
                    target = table.defs.get(head) or table.imports.get(head)
                    if target is None:
                        return dotted
                    renamed = ".".join([target, *parts[i + 1:]])
                    if renamed == dotted:
                        return dotted
                    dotted = renamed
                    break
            else:
                return dotted
        return dotted

    def constant(self, name: str) -> Optional[str]:
        """Module-level string constant, following one import hop."""
        if name in self._table.constants:
            return self._table.constants[name]
        imported = self._table.imports.get(name)
        if imported and "." in imported:
            module, _, leaf = imported.rpartition(".")
            other = self._graph.modules.get(module)
            if other:
                return other.constants.get(leaf)
        return None


def _annotation_names(node: Optional[ast.AST]) -> Set[str]:
    """Every dotted name mentioned in an annotation expression, including
    inside ``Optional[...]`` / ``List[...]`` / string annotations."""
    if node is None:
        return set()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return set()
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            key = _expr_key(sub)
            if key:
                names.add(key)
    # Attribute nodes contribute both "a.b" and (via child Name) "a";
    # prefer the full dotted forms.
    return {n for n in names
            if not any(other != n and other.startswith(n + ".") for other in names)}


_TYPING_NOISE = {"Optional", "Union", "List", "Dict", "Set", "Tuple", "Sequence",
                 "Iterable", "Iterator", "Mapping", "MutableMapping", "Callable",
                 "Any", "Type", "FrozenSet", "Deque", "None", "typing"}


def _filter_annotation(resolver: _Resolver, names: Iterable[str]) -> Set[str]:
    out: Set[str] = set()
    for name in names:
        if name.split(".")[0] in _TYPING_NOISE:
            continue
        out.add(resolver.resolve(name))
    return out


class _ValueTyper:
    """Best-effort static types of an expression (class qnames / external
    dotted constructor names), plus pickle-hazard shape flags."""

    def __init__(self, graph: CallGraph, resolver: _Resolver,
                 self_class: Optional[str]) -> None:
        self._graph = graph
        self._resolver = resolver
        self._self_class = self_class
        self._locals: Dict[str, Set[str]] = {}
        self._local_funcs: Dict[str, str] = {}

    def bind_local(self, name: str, types: Set[str]) -> None:
        if types:
            self._locals[name] = types

    def bind_local_func(self, name: str, qname: str) -> None:
        self._local_funcs[name] = qname

    def local_func(self, name: str) -> Optional[str]:
        return self._local_funcs.get(name)

    def self_attr_types(self, attr: str) -> Set[str]:
        if self._self_class is None:
            return set()
        for ancestor in self._graph.mro(self._self_class):
            types = self._graph.classes[ancestor].attr_types.get(attr)
            if types:
                return types
        return set()

    def types_of(self, node: ast.AST) -> Set[str]:
        """Type names of ``node``; empty set means "unknown"."""
        if isinstance(node, ast.Subscript):
            return self.types_of(node.value)  # one container unwrap
        if isinstance(node, ast.IfExp):
            return self.types_of(node.body) | self.types_of(node.orelse)
        if isinstance(node, ast.BoolOp):
            out: Set[str] = set()
            for value in node.values:
                out |= self.types_of(value)
            return out
        if isinstance(node, ast.Name):
            return set(self._locals.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            key = _expr_key(node)
            if key and key.startswith("self.") and key.count(".") == 1:
                return self.self_attr_types(node.attr)
            return set()
        if isinstance(node, ast.Call):
            target = self._call_target(node)
            if target is None:
                return set()
            if target in self._graph.classes:
                return {target}
            fn = self._graph.functions.get(target)
            if fn is not None:
                returns = getattr(fn.node, "returns", None)
                return _filter_annotation(
                    self._resolver, _annotation_names(returns))
            if not self._graph.is_internal(target):
                return {target}  # external constructor, e.g. threading.Lock
            return set()
        return set()

    def _call_target(self, node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name):
            return self._resolver.resolve(func.id)
        if isinstance(func, ast.Attribute):
            key = _expr_key(func)
            if key is None:
                return None
            if key.startswith("self.") and key.count(".") == 2:
                # self.attr.method() — resolve through the attribute type
                attr, method = key.split(".")[1:]
                for typ in self.self_attr_types(attr):
                    if typ in self._graph.classes:
                        resolved = self._graph.resolve_method(typ, method)
                        if resolved:
                            return resolved
                return None
            return self._resolver.resolve(key)
        return None


def _value_hazards(node: ast.AST, local_funcs: Dict[str, str]) -> Set[str]:
    """Pickle-hazard shapes of an assigned value expression."""
    hazards: Set[str] = set()
    if isinstance(node, ast.Lambda):
        hazards.add("lambda")
    elif isinstance(node, ast.GeneratorExp):
        hazards.add("generator")
    elif isinstance(node, ast.Name) and node.id in local_funcs:
        hazards.add("nested-def")
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            hazards.add("file-handle")
    return hazards


def _is_op_forwarder(node: ast.AST) -> bool:
    """True when the function forwards a non-constant first argument into a
    ``.submit(...)`` / ``.call(...)`` call (worker op indirection)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) \
                and sub.func.attr in ("submit", "call") and sub.args \
                and isinstance(sub.args[0], ast.Name):
            return True
    return False


def _string_args(node: ast.Call, resolver: _Resolver, depth: int = 3) -> Set[str]:
    """String constants among the call's arguments, one to three levels deep
    through tuple/list/dict containers and resolved ``NAME`` constants."""
    out: Set[str] = set()

    def scan(expr: ast.AST, remaining: int) -> None:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            out.add(expr.value)
        elif isinstance(expr, ast.Name):
            constant = resolver.constant(expr.id)
            if constant is not None:
                out.add(constant)
        elif remaining > 0 and isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for element in expr.elts:
                scan(element, remaining - 1)
        elif remaining > 0 and isinstance(expr, ast.Dict):
            for value in expr.values:
                if value is not None:
                    scan(value, remaining - 1)
        elif remaining > 0 and isinstance(expr, ast.Starred):
            scan(expr.value, remaining - 1)

    for arg in node.args:
        scan(arg, depth)
    for keyword in node.keywords:
        scan(keyword.value, depth)
    return out


class _EdgeVisitor(ast.NodeVisitor):
    """Walks one function body collecting edges, raises, and block sites."""

    def __init__(self, graph: CallGraph, resolver: _Resolver,
                 fn: FunctionInfo, typer: _ValueTyper,
                 op_forwarders: Set[str], summary_methods: Dict[str, Set[str]],
                 worker_call_methods: Set[str]) -> None:
        self._graph = graph
        self._resolver = resolver
        self._fn = fn
        self._typer = typer
        self._op_forwarders = op_forwarders
        self._summary_methods = summary_methods
        self._worker_call_methods = worker_call_methods
        self._held: List[str] = []
        self._handlers: List[FrozenSet[str]] = []

    # -- context tracking ------------------------------------------------ #

    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            key = _expr_key(item.context_expr)
            if key and _LOCKISH.search(key.rsplit(".", 1)[-1]):
                self._held.append(key)
                pushed += 1
            if item.context_expr is not None:
                self.visit(item.context_expr)
        for child in node.body:
            self.visit(child)
        if pushed:
            del self._held[-pushed:]

    def visit_Try(self, node: ast.Try) -> None:
        caught: Set[str] = set()
        for handler in node.handlers:
            caught |= self._handler_types(handler.type)
        self._handlers.append(frozenset(caught))
        for child in node.body:
            self.visit(child)
        self._handlers.pop()
        for handler in node.handlers:
            for child in handler.body:
                self.visit(child)
        for child in node.orelse + node.finalbody:
            self.visit(child)

    visit_TryStar = visit_Try

    def _handler_types(self, expr: Optional[ast.AST]) -> Set[str]:
        if expr is None:
            return {"BaseException"}
        if isinstance(expr, ast.Tuple):
            out: Set[str] = set()
            for element in expr.elts:
                out |= self._handler_types(element)
            return out
        key = _expr_key(expr)
        if key is None:
            return set()
        resolved = self._resolver.resolve(key)
        return {resolved.rsplit(".", 1)[-1]}

    def _nested(self, node) -> None:
        # A nested def's body runs later, outside the current lock/handler
        # context; its own edges are collected when the nested FunctionInfo
        # is visited.
        return None

    visit_FunctionDef = _nested
    visit_AsyncFunctionDef = _nested
    visit_Lambda = _nested

    # -- raises ---------------------------------------------------------- #

    def visit_Raise(self, node: ast.Raise) -> None:
        name: Optional[str] = None
        if node.exc is None:
            name = None  # bare re-raise inside a handler; ignored (documented)
        elif isinstance(node.exc, ast.Call):
            name = _expr_key(node.exc.func)
        elif isinstance(node.exc, (ast.Name, ast.Attribute)):
            name = _expr_key(node.exc)
        if name:
            resolved = self._resolver.resolve(name)
            self._graph.raises.setdefault(self._fn.qname, []).append(RaiseSite(
                exc=resolved.rsplit(".", 1)[-1], lineno=node.lineno,
                handlers=tuple(self._handlers)))
        self.generic_visit(node)

    # -- calls ----------------------------------------------------------- #

    def visit_Call(self, node: ast.Call) -> None:
        targets, external = self._resolve_call(node)
        for target in sorted(targets):
            self._add_edge(target, node.lineno, "direct")
        if not targets and external is not None:
            self._check_external_blocking(node, external)
            self._check_conversion(node, external)
        self._check_indirection(node, targets)
        self.generic_visit(node)

    def _add_edge(self, callee: str, lineno: int, kind: str) -> None:
        self._graph.calls.append(CallSite(
            caller=self._fn.qname, callee=callee, path=self._fn.path,
            lineno=lineno, kind=kind, held=tuple(self._held),
            handlers=tuple(self._handlers)))

    def _resolve_call(self, node: ast.Call) -> Tuple[Set[str], Optional[str]]:
        """Internal callee qnames, plus the external dotted name when the
        call resolves outside the package (``None`` when unresolvable)."""
        func = node.func
        if isinstance(func, ast.Name):
            local = self._typer.local_func(func.id)
            if local:
                return {local}, None
            resolved = self._resolver.resolve(func.id)
            if resolved.rsplit(".", 1)[-1] == "partial" and node.args:
                return self._partial_target(node), resolved
            return self._targets_for(resolved), \
                None if self._graph.is_internal(resolved) else resolved
        if isinstance(func, ast.Attribute):
            receiver, attr = func.value, func.attr
            if attr == "partial" and node.args:
                # functools.partial(f, ...) binds f for a later call site;
                # the edge belongs here, where the arguments flow in.
                return self._partial_target(node), _expr_key(func)
            if isinstance(receiver, ast.Constant):
                return set(), None  # "sep".join(...) and friends
            if isinstance(receiver, ast.Name) and receiver.id == "self" \
                    and self._fn.cls is not None:
                return self._graph.dispatch(self._fn.cls, attr), None
            receiver_types = self._typer.types_of(receiver)
            internal = {t for t in receiver_types if t in self._graph.classes}
            if internal:
                targets: Set[str] = set()
                for cls in internal:
                    targets |= self._graph.dispatch(cls, attr)
                return targets, None
            if receiver_types:
                # Externally typed receiver (e.g. queue.Queue) — keep the
                # dotted name so blocking heuristics can see the method.
                external_type = sorted(receiver_types)[0]
                return set(), f"{external_type}.{attr}"
            key = _expr_key(func)
            if key is not None and not key.startswith("self."):
                resolved = self._resolver.resolve(key)
                targets = self._targets_for(resolved)
                if targets:
                    return targets, None
                return set(), None if self._graph.is_internal(resolved) \
                    else resolved
            return set(), key
        return set(), None

    def _partial_target(self, node: ast.Call) -> Set[str]:
        """Internal function bound by a ``partial(f, ...)`` call, if any."""
        inner = _expr_key(node.args[0])
        if not inner:
            return set()
        if inner.startswith("self.") and self._fn.cls is not None \
                and inner.count(".") == 1:
            return self._graph.dispatch(self._fn.cls, inner.split(".", 1)[1])
        local = self._typer.local_func(inner)
        if local:
            return {local}
        inner_resolved = self._resolver.resolve(inner)
        if inner_resolved in self._graph.functions:
            return {inner_resolved}
        return self._targets_for(inner_resolved)

    def _targets_for(self, resolved: str) -> Set[str]:
        if resolved in self._graph.functions:
            return {resolved}
        if resolved in self._graph.classes:
            init = self._graph.resolve_method(resolved, "__init__")
            return {init} if init else set()
        # Class.method / module.function one level up
        if "." in resolved:
            owner, _, leaf = resolved.rpartition(".")
            if owner in self._graph.classes:
                method = self._graph.resolve_method(owner, leaf)
                if method:
                    return {method}
        return set()

    # -- external blocking / conversions --------------------------------- #

    def _check_external_blocking(self, node: ast.Call, external: str) -> None:
        name = external.rsplit(".", 1)[-1]
        if name not in _BLOCKING_ATTRS:
            return
        if isinstance(node.func, ast.Name) and name != "sleep":
            return
        if name == "get":
            queue_shaped = not node.args or \
                any(kw.arg in ("block", "timeout") for kw in node.keywords)
            if not queue_shaped:
                return
        if name == "join" and node.args:
            return
        self._graph.blocks.setdefault(self._fn.qname, []).append(BlockSite(
            desc=external if "." in external else name, lineno=node.lineno,
            held=tuple(self._held)))

    def _check_conversion(self, node: ast.Call, external: str) -> None:
        """``int(x)`` / ``float(x)`` on data-flow arguments (names,
        attributes, subscripts) may raise ValueError/TypeError; computed
        numeric arguments (calls, arithmetic) are assumed safe."""
        if external not in ("int", "float") or not node.args:
            return
        if not isinstance(node.args[0], (ast.Name, ast.Attribute, ast.Subscript)):
            return
        for exc in ("ValueError", "TypeError"):
            self._graph.raises.setdefault(self._fn.qname, []).append(RaiseSite(
                exc=exc, lineno=node.lineno, handlers=tuple(self._handlers),
                desc=f"{external}() conversion"))

    # -- worker-op indirection ------------------------------------------- #

    def _check_indirection(self, node: ast.Call, targets: Set[str]) -> None:
        forwarding = bool(targets & self._op_forwarders)
        worker_boundary = bool(targets & self._worker_call_methods)
        if not forwarding and isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("submit", "call") and not targets:
            # Untyped receiver with a submit/call shape: still scan, the
            # op table must over-approximate.
            forwarding = True
            worker_boundary = True
        if not forwarding:
            return
        for op in sorted(_string_args(node, self._resolver)):
            if _RESERVED_OP.match(op):
                continue
            for target in sorted(self._summary_methods.get(op, ())):
                self._add_edge(target, node.lineno, "indirect")
        if worker_boundary:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Lambda):
                        self._graph.submit_lambdas.append(
                            (self._fn.qname, self._fn.path, sub.lineno))


def _collect_functions(graph: CallGraph, module: ModuleTable,
                       tree: ast.Module) -> None:
    def add(node, qname: str, cls: Optional[str]) -> None:
        graph.functions[qname] = FunctionInfo(
            qname=qname, module=module.name, path=module.path,
            lineno=node.lineno, name=node.name, node=node, cls=cls)
        for child in ast.walk(node):
            if child is not node and \
                    isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested_q = f"{qname}.{child.name}"
                if nested_q not in graph.functions:
                    graph.functions[nested_q] = FunctionInfo(
                        qname=nested_q, module=module.name, path=module.path,
                        lineno=child.lineno, name=child.name, node=child,
                        cls=cls)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(node, f"{module.name}.{node.name}", None)
        elif isinstance(node, ast.ClassDef):
            cls_qname = f"{module.name}.{node.name}"
            info = ClassInfo(qname=cls_qname, module=module.name,
                             path=module.path, lineno=node.lineno,
                             name=node.name)
            graph.classes[cls_qname] = info
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method_q = f"{cls_qname}.{item.name}"
                    info.methods[item.name] = method_q
                    add(item, method_q, cls_qname)


def _collect_class_details(graph: CallGraph,
                           class_nodes: Dict[str, ast.ClassDef]) -> None:
    """Second pass: resolve bases, subclass map, attribute types/hazards."""
    for qname, node in class_nodes.items():
        info = graph.classes[qname]
        resolver = _Resolver(graph, graph.modules[info.module])
        for base in node.bases:
            key = _expr_key(base)
            if key:
                resolved = resolver.resolve(key)
                if resolved in graph.classes:
                    info.bases.append(resolved)
                    graph.subclasses.setdefault(resolved, set()).add(qname)
        # class-level fields (dataclass style and plain class attributes)
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                types = _filter_annotation(
                    resolver, _annotation_names(item.annotation))
                _record_attr(graph, info, item.target.id, types, set(),
                             item.lineno)
            elif isinstance(item, ast.Assign):
                typer = _ValueTyper(graph, resolver, qname)
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        _record_attr(graph, info, target.id,
                                     typer.types_of(item.value),
                                     _value_hazards(item.value, {}),
                                     item.lineno)
    # instance attributes: self.<attr> = ... in any method
    for qname, node in class_nodes.items():
        info = graph.classes[qname]
        resolver = _Resolver(graph, graph.modules[info.module])
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            typer = _ValueTyper(graph, resolver, qname)
            local_funcs = {c.name: f"{qname}.{item.name}.{c.name}"
                           for c in ast.walk(item)
                           if c is not item and
                           isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef))}
            param_types = _param_annotation_types(resolver, item)
            for stmt in ast.walk(item):
                target_attr: Optional[str] = None
                value: Optional[ast.AST] = None
                annotation: Optional[ast.AST] = None
                if isinstance(stmt, ast.Assign) and stmt.targets:
                    for target in stmt.targets:
                        if isinstance(target, ast.Attribute) and \
                                isinstance(target.value, ast.Name) and \
                                target.value.id == "self":
                            target_attr = target.attr
                    value = stmt.value
                elif isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Attribute) and \
                        isinstance(stmt.target.value, ast.Name) and \
                        stmt.target.value.id == "self":
                    target_attr = stmt.target.attr
                    value = stmt.value
                    annotation = stmt.annotation
                if target_attr is None:
                    continue
                types: Set[str] = set()
                if annotation is not None:
                    types |= _filter_annotation(
                        resolver, _annotation_names(annotation))
                if value is not None:
                    types |= typer.types_of(value)
                    if isinstance(value, ast.Name) and value.id in param_types:
                        types |= param_types[value.id]
                hazards = _value_hazards(value, local_funcs) \
                    if value is not None else set()
                _record_attr(graph, info, target_attr, types, hazards,
                             stmt.lineno)


def _record_attr(graph: CallGraph, info: ClassInfo, attr: str,
                 types: Set[str], hazards: Set[str], lineno: int) -> None:
    if types:
        info.attr_types.setdefault(attr, set()).update(types)
    if hazards:
        info.attr_hazards.setdefault(attr, set()).update(hazards)
    info.attr_sites.setdefault(attr, (info.path, lineno))


def _param_annotation_types(resolver: _Resolver, node) -> Dict[str, Set[str]]:
    out: Dict[str, Set[str]] = {}
    args = node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.annotation is not None:
            types = _filter_annotation(resolver,
                                       _annotation_names(arg.annotation))
            if types:
                out[arg.arg] = types
    return out


def _summary_method_table(graph: CallGraph) -> Dict[str, Set[str]]:
    """Worker-op name → candidate method qnames.

    Candidates are methods of the summary hierarchy (subclasses of any
    class named ``TemporalGraphSummary``) when one exists, otherwise any
    internal class method of that name — the over-approximation keeps the
    table useful for synthetic test packages.
    """
    roots = [q for q, c in graph.classes.items()
             if c.name == "TemporalGraphSummary"]
    candidates: Dict[str, Set[str]] = {}
    if roots:
        pool: Set[str] = set()
        for root in roots:
            pool.add(root)
            pool |= graph.transitive_subclasses(root)
        for cls in pool:
            for name, qname in graph.classes[cls].methods.items():
                candidates.setdefault(name, set()).add(qname)
    else:
        for cls in graph.classes.values():
            for name, qname in cls.methods.items():
                candidates.setdefault(name, set()).add(qname)
    return candidates


def _worker_call_methods(graph: CallGraph) -> Set[str]:
    """Qnames of ``submit``/``call`` methods on the worker hierarchy."""
    out: Set[str] = set()
    for cls in graph.classes.values():
        if "ShardWorker" in cls.name:
            for name in ("submit", "call"):
                if name in cls.methods:
                    out.add(cls.methods[name])
    return out


def _boundary_factories(graph: CallGraph, fn: FunctionInfo,
                        resolver: _Resolver, typer: _ValueTyper) -> None:
    """Record factory classes flowing into worker/process boundaries."""
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        func_key = _expr_key(node.func)
        if func_key is None:
            continue
        resolved = resolver.resolve(func_key.removeprefix("self."))
        leaf = resolved.rsplit(".", 1)[-1]
        if leaf not in ("make_shard_worker", "ProcessShardWorker"):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for typ in typer.types_of(arg):
                if typ in graph.classes and \
                        "__call__" in graph.classes[typ].methods:
                    graph.boundary_factories.add(typ)


def _local_assignment_types(resolver: _Resolver, typer: _ValueTyper, node,
                            param_types: Dict[str, Set[str]]) -> None:
    """Single pass of flow-insensitive local inference before edge walking."""
    for name, types in param_types.items():
        typer.bind_local(name, types)
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name):
            typer.bind_local(stmt.targets[0].id, typer.types_of(stmt.value))
        elif isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            names = _annotation_names(stmt.annotation)
            typer.bind_local(stmt.target.id,
                             _filter_annotation(resolver, names))


def _package_sources(root: Path, repo_root: Optional[Path] = None
                     ) -> List[Tuple[Path, str, str]]:
    """List the package's ``(file, relpath, source)`` triples, sorted."""
    files: List[Tuple[Path, str, str]] = []
    for file in sorted(root.resolve().rglob("*.py")):
        if any(part.startswith(".") for part in file.parts):
            continue
        source = file.read_text(encoding="utf-8")
        if repo_root is not None:
            try:
                rel = file.relative_to(repo_root.resolve()).as_posix()
            except ValueError:
                rel = file.as_posix()
        else:
            rel = file.as_posix()
        files.append((file, rel, source))
    return files


def package_fingerprint(root: Path, repo_root: Optional[Path] = None) -> str:
    """Fingerprint of a package's *current* sources.

    Matches the ``source_key`` a fresh :func:`build_package_graph` over the
    same tree would record, so a cached graph is valid exactly when the
    fingerprints agree.
    """
    return source_fingerprint(
        [(rel, src) for _, rel, src in _package_sources(root, repo_root)])


def build_package_graph(root: Path, package: Optional[str] = None,
                        repo_root: Optional[Path] = None) -> CallGraph:
    """Build the call graph for the package rooted at ``root``.

    ``root`` is the package directory itself (e.g. ``src/repro``); the
    package name defaults to the directory name.  Paths in the graph are
    relative to ``repo_root`` when given (stable finding/baseline keys).
    """
    root = root.resolve()
    package = package or root.name
    files = _package_sources(root, repo_root)

    graph = CallGraph(package=package, root=str(root),
                      source_key=source_fingerprint(
                          [(rel, src) for _, rel, src in files]))

    trees: Dict[str, ast.Module] = {}
    for file, rel, source in files:
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue  # per-file rules report the syntax error
        table = _collect_module_table(package, root, file, tree, rel)
        graph.modules[table.name] = table
        trees[table.name] = tree

    class_nodes: Dict[str, ast.ClassDef] = {}
    for name, tree in trees.items():
        _collect_functions(graph, graph.modules[name], tree)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                class_nodes[f"{name}.{node.name}"] = node

    _collect_class_details(graph, class_nodes)

    op_forwarders = {q for q, fn in graph.functions.items()
                     if _is_op_forwarder(fn.node)}
    summary_methods = _summary_method_table(graph)
    worker_calls = _worker_call_methods(graph)

    for fn in list(graph.functions.values()):
        resolver = _Resolver(graph, graph.modules[fn.module])
        typer = _ValueTyper(graph, resolver, fn.cls)
        # bind nested defs to their graph qnames for local-name calls
        for child in ast.walk(fn.node):
            if child is not fn.node and \
                    isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested_q = f"{fn.qname}.{child.name}"
                if nested_q in graph.functions:
                    typer.bind_local_func(child.name, nested_q)
        _local_assignment_types(resolver, typer, fn.node,
                                _param_annotation_types(resolver, fn.node))
        visitor = _EdgeVisitor(graph, resolver, fn, typer, op_forwarders,
                               summary_methods, worker_calls)
        for stmt in getattr(fn.node, "body", []):
            visitor.visit(stmt)
        _boundary_factories(graph, fn, resolver, typer)
        if fn.name == "__call__" and fn.cls in graph.classes:
            for stmt in ast.walk(fn.node):
                if isinstance(stmt, ast.Return) and stmt.value is not None:
                    graph.classes[fn.cls].call_returns |= {
                        t for t in typer.types_of(stmt.value)
                        if t in graph.classes}
    return graph
