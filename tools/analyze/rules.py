"""AST implementations of the ``repro-lint`` rules.

Every rule works on a single file at a time from three inputs: the parsed
AST, the raw source lines, and the comment map (``tokenize``-extracted, so
comments inside strings never confuse the annotations).  Rules are pure —
they return :class:`Finding` lists and never mutate the tree — and each one
documents the exact heuristic it applies, because a project lint rule is
only trustworthy when its blind spots are written down.

Annotation conventions recognized here (see ``docs/ARCHITECTURE.md``):

* ``# guarded-by: <lock>`` on (or directly above) a ``self.<field> = ...``
  assignment in ``__init__`` declares the field's lock discipline.  The
  guard is either the name of a sibling lock attribute (``_lock``,
  ``self._state``) enforced via ``with`` blocks, or ``owner=<m1>,<m2>`` —
  a method-confinement form stating that only the listed methods (plus
  ``__init__``) may touch the field.
* ``# hot-path`` on (or directly above) a ``def`` line marks a function
  whose Python-level loops HOT001 inventories for vectorization.
* ``# repro-lint: ok RULE[,RULE...]`` on (or directly above) an offending
  line suppresses those rules for that line; appending a reason after the
  rule list is encouraged.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Attribute names treated as lock-like when they appear as the subject of a
#: ``with`` statement.  Matches ``_lock``, ``lock``, ``_state`` (the serving
#: engine's condition), ``mutex``, ``cond`` / ``condition``, and plural or
#: suffixed variants thereof.
_LOCKISH = re.compile(r"(^|_)(lock|mutex|state|cond|condition|sem|semaphore)s?\d*$")

#: Method names whose call blocks the calling thread (CONC001).  ``get`` is
#: only flagged in its queue shape (zero positional arguments, or a
#: ``block=``/``timeout=`` keyword) so dictionary ``.get(key)`` stays clean;
#: ``join`` is only flagged with zero positional arguments so string and
#: path joins stay clean (a positional-timeout ``thread.join(5)`` is the
#: documented blind spot).
_BLOCKING_ATTRS = {"get", "put", "join", "collect", "sleep", "wait", "wait_for"}

#: Builtin exception types ERR001 refuses in ``src/repro/**``.
#: ``NotImplementedError`` is deliberately absent (idiomatic for interface
#: stubs), as is ``StopIteration`` (generator protocol).
_BUILTIN_EXCEPTIONS = {
    "Exception", "BaseException", "ValueError", "TypeError", "RuntimeError",
    "KeyError", "IndexError", "LookupError", "AttributeError", "NameError",
    "ArithmeticError", "ZeroDivisionError", "OverflowError", "OSError",
    "IOError", "EOFError", "MemoryError", "RecursionError", "SystemError",
    "AssertionError", "UnicodeError", "BufferError", "ReferenceError",
}

#: Call names that count as "the handler did something" for EXC001.
_LOGGING_NAMES = {"log", "debug", "info", "warning", "warn", "error",
                  "exception", "critical", "print", "fail", "record"}

_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*([^\s#][^#]*?)\s*$")
_HOT_PATH = re.compile(r"#\s*hot-path\b")


@dataclass(frozen=True)
class Finding:
    """One rule violation: where it is, which rule, and why it matters."""

    rule: str
    path: str
    line: int
    symbol: str
    message: str

    def render(self) -> str:
        """Human-readable one-line report (``path:line: RULE [symbol] msg``)."""
        where = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.path}:{self.line}: {self.rule}{where}: {self.message}"


def _expr_key(node: ast.AST) -> Optional[str]:
    """Dotted-name key of a simple expression (``self._lock``) or ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _expr_key(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _annotation_for(node_line: int, comments: Dict[int, str],
                    lines: Sequence[str], pattern: re.Pattern) -> Optional[re.Match]:
    """Match ``pattern`` against the comment on ``node_line`` or the comment
    occupying the whole previous line."""
    comment = comments.get(node_line)
    if comment:
        match = pattern.search(comment)
        if match:
            return match
    previous = comments.get(node_line - 1)
    if previous and node_line - 2 < len(lines) and \
            lines[node_line - 2].lstrip().startswith("#"):
        return pattern.search(previous)
    return None


class _Context:
    """Shared per-file inputs every rule receives."""

    def __init__(self, tree: ast.AST, path: str, lines: Sequence[str],
                 comments: Dict[int, str]) -> None:
        self.tree = tree
        self.path = path
        self.lines = lines
        self.comments = comments


# --------------------------------------------------------------------- #
# CONC001 — blocking call while holding a lock
# --------------------------------------------------------------------- #

class _BlockingCallVisitor(ast.NodeVisitor):
    """Tracks the lexically held lock set and flags blocking calls under it.

    Waiting on the *held* condition itself is allowed — ``Condition.wait``
    releases the lock it guards, which is exactly the correct pattern — but
    every other blocking call keeps the lock held while parked, starving all
    other threads that need it.
    """

    def __init__(self, ctx: _Context, findings: List[Finding]) -> None:
        self._ctx = ctx
        self._findings = findings
        self._held: List[str] = []
        self._symbols: List[str] = []

    def _symbol(self) -> str:
        return ".".join(self._symbols)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._symbols.append(node.name)
        self.generic_visit(node)
        self._symbols.pop()

    def _visit_function(self, node) -> None:
        self._symbols.append(node.name)
        self.generic_visit(node)
        self._symbols.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            key = _expr_key(item.context_expr)
            if key and _LOCKISH.search(key.rsplit(".", 1)[-1]):
                self._held.append(key)
                pushed += 1
        for child in node.body:
            self.visit(child)
        if pushed:
            del self._held[-pushed:]

    def visit_Call(self, node: ast.Call) -> None:
        if self._held:
            self._check_call(node)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        name: Optional[str] = None
        receiver: Optional[str] = None
        if isinstance(func, ast.Attribute):
            name = func.attr
            receiver = _expr_key(func.value)
            if isinstance(func.value, ast.Constant):
                return  # "sep".join(...) and friends are not blocking
        elif isinstance(func, ast.Name):
            name = func.id
            if name != "sleep":
                return
        if name not in _BLOCKING_ATTRS:
            return
        if name in ("wait", "wait_for"):
            if receiver is not None and receiver in self._held:
                return  # waiting on the held condition releases it
        if name == "get":
            queue_shaped = not node.args or \
                any(kw.arg in ("block", "timeout") for kw in node.keywords)
            if not queue_shaped:
                return  # dict.get(key[, default]) is not blocking
        if name == "join" and node.args:
            return  # "sep".join(parts) / os.path.join(...) are not blocking
        held = ", ".join(self._held)
        self._findings.append(Finding(
            "CONC001", self._ctx.path, node.lineno, self._symbol(),
            f"blocking call '{name}' while holding {held}; blocking under a "
            f"lock starves every thread contending for it"))


def check_blocking_under_lock(ctx: _Context) -> List[Finding]:
    """CONC001: blocking calls inside a ``with <lock>:`` body."""
    findings: List[Finding] = []
    _BlockingCallVisitor(ctx, findings).visit(ctx.tree)
    return findings


# --------------------------------------------------------------------- #
# CONC002 — guarded-by discipline
# --------------------------------------------------------------------- #

def _collect_guards(cls: ast.ClassDef, ctx: _Context) -> Dict[str, Tuple[str, Tuple[str, ...]]]:
    """Guarded fields of one class: ``{field: ("lock", (lockname,))}`` or
    ``{field: ("owner", (method, ...))}``, from ``# guarded-by:`` comments on
    ``self.<field> = ...`` assignments in ``__init__``."""
    guards: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
    init = next((n for n in cls.body
                 if isinstance(n, ast.FunctionDef) and n.name == "__init__"), None)
    if init is None:
        return guards
    for stmt in ast.walk(init):
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        field_names = [t.attr for t in targets
                       if isinstance(t, ast.Attribute)
                       and isinstance(t.value, ast.Name) and t.value.id == "self"]
        if not field_names:
            continue
        match = _annotation_for(stmt.lineno, ctx.comments, ctx.lines, _GUARDED_BY)
        if match is None:
            continue
        spec = match.group(1).strip()
        if spec.startswith("owner="):
            owners = tuple(p.strip() for p in spec[len("owner="):].split(",")
                           if p.strip())
            guard: Tuple[str, Tuple[str, ...]] = ("owner", owners)
        else:
            lock = spec.split()[0]
            if lock.startswith("self."):
                lock = lock[len("self."):]
            guard = ("lock", (lock,))
        for field in field_names:
            guards[field] = guard
    return guards


class _GuardEnforcer(ast.NodeVisitor):
    """Checks every ``self.<guarded>`` access in one class against its guard."""

    def __init__(self, cls: ast.ClassDef,
                 guards: Dict[str, Tuple[str, Tuple[str, ...]]],
                 ctx: _Context, findings: List[Finding]) -> None:
        self._cls = cls
        self._guards = guards
        self._ctx = ctx
        self._findings = findings
        self._held: List[str] = []      # lock attribute names lexically held
        self._method: Optional[str] = None

    def run(self) -> None:
        for node in self._cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    node.name != "__init__":
                self._method = node.name
                for child in node.body:
                    self.visit(child)
        self._method = None

    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            key = _expr_key(item.context_expr)
            if key and key.startswith("self."):
                self._held.append(key[len("self."):])
                pushed += 1
        for child in node.body:
            self.visit(child)
        if pushed:
            del self._held[-pushed:]

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A nested def runs later, outside the lexical with-block; its
        # accesses are checked with an empty held set.
        held, self._held = self._held, []
        self.generic_visit(node)
        self._held = held

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            guard = self._guards.get(node.attr)
            if guard is not None:
                kind, names = guard
                if kind == "lock" and names[0] not in self._held:
                    self._findings.append(Finding(
                        "CONC002", self._ctx.path, node.lineno,
                        f"{self._cls.name}.{self._method}",
                        f"'self.{node.attr}' is guarded-by '{names[0]}' but "
                        f"accessed without 'with self.{names[0]}:'"))
                elif kind == "owner" and self._method not in names:
                    allowed = ", ".join(names)
                    self._findings.append(Finding(
                        "CONC002", self._ctx.path, node.lineno,
                        f"{self._cls.name}.{self._method}",
                        f"'self.{node.attr}' is confined to owner "
                        f"method(s) {allowed} but accessed from "
                        f"'{self._method}'"))
        self.generic_visit(node)


def check_guarded_by(ctx: _Context) -> List[Finding]:
    """CONC002: ``# guarded-by:`` annotated fields accessed undisciplined."""
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            guards = _collect_guards(node, ctx)
            if guards:
                _GuardEnforcer(node, guards, ctx, findings).run()
    return findings


# --------------------------------------------------------------------- #
# CONC003 — untracked threads
# --------------------------------------------------------------------- #

def _is_thread_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "Thread"
    if isinstance(func, ast.Attribute):
        return func.attr == "Thread"
    return False


def check_thread_lifecycle(ctx: _Context) -> List[Finding]:
    """CONC003: ``threading.Thread`` without ``daemon=`` or a tracked join.

    A thread with neither is a leak: a non-daemon thread with no ``join``
    keeps the interpreter alive on the failure path, and nothing ever
    observes its death.  Join tracking is per-file and name-based (locals,
    ``self.<attr>``, and one level of ``alias = self.<attr>`` aliasing).
    """
    joined: Set[str] = set()
    aliases: Dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name):
            source = _expr_key(node.value)
            if source:
                aliases[node.targets[0].id] = source.removeprefix("self.")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "join":
            receiver = _expr_key(node.func.value)
            if receiver:
                receiver = receiver.removeprefix("self.")
                joined.add(receiver)
                if receiver in aliases:
                    joined.add(aliases[receiver])

    findings: List[Finding] = []
    assigned_calls: Set[int] = set()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not (isinstance(value, ast.Call) and _is_thread_call(value)):
            continue
        assigned_calls.add(id(value))
        has_daemon = any(kw.arg == "daemon" for kw in value.keywords)
        targets = [_expr_key(t) for t in node.targets]
        tracked = any(t and t.removeprefix("self.") in joined for t in targets)
        if not has_daemon and not tracked:
            findings.append(Finding(
                "CONC003", ctx.path, value.lineno, "",
                "threading.Thread created without daemon= and without a "
                "tracked join(); decide its lifecycle explicitly"))
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and _is_thread_call(node) and \
                id(node) not in assigned_calls:
            if not any(kw.arg == "daemon" for kw in node.keywords):
                findings.append(Finding(
                    "CONC003", ctx.path, node.lineno, "",
                    "threading.Thread created inline without daemon=; an "
                    "unassigned thread can never be joined"))
    return findings


# --------------------------------------------------------------------- #
# EXC001 — swallowed broad excepts
# --------------------------------------------------------------------- #

def _is_broad(expr: Optional[ast.AST]) -> bool:
    if expr is None:
        return True  # bare except:
    if isinstance(expr, ast.Tuple):
        return any(_is_broad(e) for e in expr.elts)
    key = _expr_key(expr)
    return key in ("Exception", "BaseException") if key else False


def _handler_swallows(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return False
        if isinstance(node, ast.Name) and node.id == handler.name:
            return False  # the caught exception is used (recorded, attached)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                func.id if isinstance(func, ast.Name) else None
            if name in _LOGGING_NAMES:
                return False
    return True


def check_swallowed_except(ctx: _Context) -> List[Finding]:
    """EXC001: broad ``except`` that neither re-raises, logs, nor uses the
    exception — including ``contextlib.suppress(Exception)`` blocks."""
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler) and _is_broad(node.type) and \
                _handler_swallows(node):
            findings.append(Finding(
                "EXC001", ctx.path, node.lineno, "",
                "broad except swallows the exception (no re-raise, no log, "
                "exception unused); narrow it or justify the suppression"))
        if isinstance(node, ast.Call) and \
                _expr_key(node.func) in ("contextlib.suppress", "suppress") and \
                any(_is_broad(arg) and _expr_key(arg) for arg in node.args):
            findings.append(Finding(
                "EXC001", ctx.path, node.lineno, "",
                "contextlib.suppress of a broad exception type; narrow it "
                "or justify the suppression"))
    return findings


# --------------------------------------------------------------------- #
# ERR001 — builtin raises inside the library
# --------------------------------------------------------------------- #

def check_builtin_raises(ctx: _Context) -> List[Finding]:
    """ERR001: ``raise <builtin>`` in ``src/repro/**`` instead of a
    :mod:`repro.errors` type.

    Library callers catch :class:`repro.errors.ReproError`; a bare builtin
    escapes that contract.  Only applies to files under the ``repro``
    package — tools, tests, and benchmarks may raise whatever fits.
    """
    parts = ctx.path.replace("\\", "/").split("/")
    if "repro" not in parts:
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call):
            name = _expr_key(exc.func)
        elif isinstance(exc, (ast.Name, ast.Attribute)):
            name = _expr_key(exc)
        if name in _BUILTIN_EXCEPTIONS:
            findings.append(Finding(
                "ERR001", ctx.path, node.lineno, "",
                f"raises builtin {name}; raise a repro.errors type so "
                f"callers can catch ReproError uniformly"))
    return findings


# --------------------------------------------------------------------- #
# HOT001 — Python loops in hot-path functions
# --------------------------------------------------------------------- #

_LOOP_NODES = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
               ast.GeneratorExp)


#: Function-name suffixes that mark a call as a bulk (array-at-a-time)
#: kernel; calls to such names, or through the ``np``/``numpy`` modules,
#: make a hot-path function HOT001-compliant (see below).
_BULK_SUFFIXES = ("_array", "_arrays")


def _is_bulk_call(call: ast.Call) -> bool:
    """True when ``call`` invokes a bulk kernel.

    Either the called name ends in a :data:`_BULK_SUFFIXES` suffix
    (``probe_rows_array``, ``vectorized.candidate_cells_array``, ...) or the
    attribute chain is rooted at ``np`` / ``numpy`` (``np.unique``,
    ``numpy.concatenate``, ...).
    """
    func = call.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
        root = func
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in ("np", "numpy"):
            return True
    return name is not None and name.endswith(_BULK_SUFFIXES)


def check_hot_path_loops(ctx: _Context) -> List[Finding]:
    """HOT001: per-item Python loops inside ``# hot-path`` functions.

    This produces the machine-checked inventory of loops the ROADMAP's
    vectorization item must replace with bulk array operations; each one is
    expected to live in the committed baseline with a justification — why
    it stays scalar (its loop runs over one item's probes or levels, not
    over items), or until it is vectorized.

    A hot-path function that *makes bulk calls* (a call to a
    ``*_array``/``*_arrays`` kernel or through ``np``/``numpy``) is
    **compliant**: its remaining Python loops are orchestration around
    vectorized work, not per-item math — exactly the end state the
    inventory drives toward.
    """
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if _annotation_for(node.lineno, ctx.comments, ctx.lines,
                           _HOT_PATH) is None:
            continue
        if any(isinstance(sub, ast.Call) and _is_bulk_call(sub)
               for sub in ast.walk(node)):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, _LOOP_NODES):
                kind = type(sub).__name__
                findings.append(Finding(
                    "HOT001", ctx.path, sub.lineno, node.name,
                    f"Python-level loop ({kind}) in hot-path function "
                    f"'{node.name}'; vectorization candidate"))
    return findings


#: Rule registry: rule id → (checker, one-line description).
RULES = {
    "CONC001": (check_blocking_under_lock,
                "blocking call while holding a lock"),
    "CONC002": (check_guarded_by,
                "guarded-by field accessed outside its lock/owner"),
    "CONC003": (check_thread_lifecycle,
                "thread without daemon= or tracked join"),
    "EXC001": (check_swallowed_except,
               "swallowed broad except"),
    "ERR001": (check_builtin_raises,
               "builtin exception raised inside src/repro"),
    "HOT001": (check_hot_path_loops,
               "Python loop in a hot-path function"),
}
