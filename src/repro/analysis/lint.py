"""The codebase determinism lint (``repro-lint``).

An AST-based linter over our *own* sources, flagging the hazards that
make a simulation irreproducible or a future multiprocess scale-out
unsafe to fork:

``mutable-global``
    Module-level mutable state that is mutated at runtime — a name
    bound at module scope to a ``dict``/``list``/``set``/``deque`` (or
    their constructors) that some function in the same module mutates
    (method call, subscript assignment, ``global`` rebinding). Shared
    across every engine in the process; poison for workers.
``unseeded-random``
    ``random.<fn>()`` / ``numpy.random.<fn>()`` calls through the
    module-global generator, or bare ``random.Random()`` /
    ``default_rng()`` with no seed argument. Seeded constructions are
    fine — determinism requires the seed to be explicit.
``wall-clock``
    ``time.time()`` / ``time.time_ns()`` / ``datetime.now()`` /
    ``datetime.utcnow()`` in library code: simulations must run on
    virtual time, and wall-clock reads make replays diverge.
``set-iteration``
    Iterating a value statically known to be a bare ``set`` or
    ``frozenset`` (for-loops, comprehensions) — Python set order is
    salted per process, so any output derived from it is
    nondeterministic. Wrapping in ``sorted(...)`` neutralizes it.
``bare-assert``
    ``assert`` statements in library code. Asserts are compiled away
    under ``python -O``, so an invariant guarded by one silently stops
    being checked in optimized deployments — raise a typed
    :mod:`repro.errors` exception instead. (Tests are not linted;
    pytest asserts are fine where they live.)
``env-read``
    ``os.environ`` (subscript, ``.get``, any other use), ``os.getenv``
    and their bytes twins ``os.environb`` / ``os.getenvb`` in library
    code, including ``from os import environ``. Ambient configuration
    makes a replay depend on the shell it ran in; every path the
    library can take is chosen by an explicit argument instead.

Suppression is per-line via a pragma comment::

    for x in pool:  # repro-lint: disable=set-iteration

Findings reuse the verifier's :class:`~repro.analysis.findings.Finding`
model (``subject`` is the file path), so ``repro-lint --json`` and
``repro-verify --json`` emit the same schema. A committed baseline
(findings we have consciously accepted) can be subtracted; this repo's
baseline is empty and CI keeps it that way.
"""

from __future__ import annotations

import ast
import re
import tokenize
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .findings import AnalysisReport, Finding, Severity

RULES = ("mutable-global", "unseeded-random", "wall-clock", "set-iteration",
         "bare-assert", "env-read")

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?:=([\w\-, ]+))?")

#: Constructor names whose module-level result counts as mutable.
_MUTABLE_CONSTRUCTORS = {"dict", "list", "set", "deque", "defaultdict",
                         "OrderedDict", "Counter", "bytearray"}

#: Methods that mutate their receiver in place.
_MUTATOR_METHODS = {"append", "extend", "insert", "add", "update", "pop",
                    "popitem", "remove", "discard", "clear", "setdefault",
                    "appendleft", "sort", "__setitem__"}

#: ``random.<name>`` calls that draw from the module-global generator.
_GLOBAL_RANDOM_FNS = {"random", "randint", "randrange", "uniform", "choice",
                      "choices", "sample", "shuffle", "gauss", "normalvariate",
                      "expovariate", "betavariate", "getrandbits",
                      "triangular", "vonmisesvariate", "paretovariate",
                      "random_sample", "rand", "randn"}

#: ``os`` members that read the process environment.
_ENV_READERS = {"environ", "environb", "getenv", "getenvb"}

#: Consumers that make set iteration order-insensitive.
_ORDER_NEUTRALIZERS = {"sorted", "len", "sum", "min", "max", "any", "all",
                       "set", "frozenset"}


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------

def parse_pragmas(source: str) -> Dict[int, Optional[Set[str]]]:
    """line -> suppressed rule set (None = all rules) from comments."""
    pragmas: Dict[int, Optional[Set[str]]] = {}
    lines = source.splitlines(keepends=True)
    reader = iter(lines).__next__
    try:
        for tok in tokenize.generate_tokens(reader):
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if match is None:
                continue
            rules = match.group(1)
            if rules is None:
                pragmas[tok.start[0]] = None
            else:
                names = {r.strip() for r in rules.split(",") if r.strip()}
                existing = pragmas.get(tok.start[0])
                if existing is None and tok.start[0] in pragmas:
                    continue   # blanket pragma already present
                pragmas[tok.start[0]] = (existing or set()) | names
    except tokenize.TokenError:
        pass   # unterminated constructs: lint the lines we could read
    return pragmas


def _suppressed(pragmas: Dict[int, Optional[Set[str]]], line: int,
                code: str) -> bool:
    if line not in pragmas:
        return False
    rules = pragmas[line]
    return rules is None or code in rules


# ---------------------------------------------------------------------------
# Rule helpers
# ---------------------------------------------------------------------------

def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for an attribute/name chain, else ''."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        return name.rsplit(".", 1)[-1] in _MUTABLE_CONSTRUCTORS
    return False


def _module_level_assigns(tree: ast.Module) -> Dict[str, ast.stmt]:
    """Names bound to mutable containers at module scope."""
    out: Dict[str, ast.stmt] = {}
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_mutable_literal(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = stmt
    return out


class _GlobalMutationFinder(ast.NodeVisitor):
    """Find runtime mutations of module-level names, inside functions."""

    def __init__(self, globals_: Dict[str, ast.stmt]):
        self.globals = globals_
        self.mutated: Dict[str, int] = {}   # name -> first mutation line
        self._depth = 0
        self._shadowed: List[Set[str]] = []

    def _local(self, name: str) -> bool:
        return any(name in scope for scope in self._shadowed)

    def _enter_function(self, node: Any) -> None:
        args = node.args
        names = {a.arg for a in args.args + args.kwonlyargs
                 + args.posonlyargs}
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
        # Locally assigned names shadow the module globals, unless
        # re-exposed with a ``global`` statement.
        hard_globals = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                hard_globals.update(sub.names)
            elif isinstance(sub, (ast.Assign, ast.AnnAssign, ast.For,
                                  ast.withitem)):
                for t in ast.walk(sub):
                    if isinstance(t, ast.Name) and isinstance(
                            t.ctx, ast.Store):
                        names.add(t.id)
        names -= hard_globals
        self._shadowed.append(names)
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1
        self._shadowed.pop()

    visit_FunctionDef = _enter_function
    visit_AsyncFunctionDef = _enter_function

    def _mark(self, name: str, line: int) -> None:
        if (name in self.globals and not self._local(name)
                and name not in self.mutated):
            self.mutated[name] = line

    def visit_Call(self, node: ast.Call) -> None:
        if self._depth and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_METHODS:
                name = _dotted(node.func.value)
                if name:
                    self._mark(name.split(".")[0], node.lineno)
        self.generic_visit(node)

    def _store_target(self, target: ast.expr, line: int) -> None:
        if isinstance(target, ast.Subscript):
            name = _dotted(target.value)
            if name and "." not in name:
                self._mark(name, line)
        elif isinstance(target, ast.Name):
            self._mark(target.id, line)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._depth:
            for target in node.targets:
                self._store_target(target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._depth:
            self._store_target(node.target, node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        if self._depth:
            for target in node.targets:
                self._store_target(target, node.lineno)
        self.generic_visit(node)


def _check_mutable_globals(tree: ast.Module, path: str
                           ) -> Iterator[Finding]:
    globals_ = _module_level_assigns(tree)
    if not globals_:
        return
    finder = _GlobalMutationFinder(globals_)
    finder.visit(tree)
    for name in sorted(finder.mutated):
        decl = globals_[name]
        yield Finding(
            code="mutable-global", severity=Severity.ERROR,
            message=(f"module-level {name!r} is mutated at runtime "
                     f"(line {finder.mutated[name]}); shared mutable "
                     f"state breaks process forking"),
            pass_name="lint", subject=path, line=decl.lineno)


def _check_random_and_clock(tree: ast.Module, path: str
                            ) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if not dotted:
            continue
        parts = dotted.split(".")
        head, tail = parts[0], parts[-1]
        if (head in ("random", "np", "numpy")
                and tail in _GLOBAL_RANDOM_FNS and len(parts) > 1):
            yield Finding(
                code="unseeded-random", severity=Severity.ERROR,
                message=(f"{dotted}() draws from the process-global "
                         f"generator; pass an explicit random.Random(seed)"),
                pass_name="lint", subject=path, line=node.lineno)
        elif dotted in ("random.Random", "numpy.random.default_rng",
                        "np.random.default_rng") and not (
                node.args or node.keywords):
            yield Finding(
                code="unseeded-random", severity=Severity.ERROR,
                message=f"{dotted}() constructed without a seed",
                pass_name="lint", subject=path, line=node.lineno)
        elif dotted in ("time.time", "time.time_ns", "datetime.now",
                        "datetime.utcnow", "datetime.datetime.now",
                        "datetime.datetime.utcnow"):
            yield Finding(
                code="wall-clock", severity=Severity.ERROR,
                message=(f"{dotted}() reads the wall clock; simulations "
                         f"must use virtual time"),
                pass_name="lint", subject=path, line=node.lineno)


class _SetIterationFinder(ast.NodeVisitor):
    """Scope-local inference of names bound to bare sets, then flag
    iteration over them (and over set literals/calls directly)."""

    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []
        self._set_names: List[Set[str]] = [set()]

    @staticmethod
    def _is_set_expr(node: Optional[ast.AST]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name in ("set", "frozenset"):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            # set algebra keeps set-ness if either side is a known set
            return (_SetIterationFinder._is_set_expr(node.left)
                    or _SetIterationFinder._is_set_expr(node.right))
        return False

    def _known_set(self, node: ast.AST) -> bool:
        if self._is_set_expr(node):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._set_names)
        return False

    def _enter_scope(self, node: Any) -> None:
        self._set_names.append(set())
        self.generic_visit(node)
        self._set_names.pop()

    visit_FunctionDef = _enter_scope
    visit_AsyncFunctionDef = _enter_scope
    visit_ClassDef = _enter_scope

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                if self._is_set_expr(node.value):
                    self._set_names[-1].add(target.id)
                else:
                    self._set_names[-1].discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            if self._is_set_expr(node.value):
                self._set_names[-1].add(node.target.id)
            else:
                self._set_names[-1].discard(node.target.id)
        self.generic_visit(node)

    def _flag(self, iter_node: ast.AST) -> None:
        if self._known_set(iter_node):
            what = (repr(_dotted(iter_node))
                    if isinstance(iter_node, ast.Name) else "expression")
            self.findings.append(Finding(
                code="set-iteration", severity=Severity.ERROR,
                message=(f"iteration over bare set {what}: Python set "
                         f"order is salted per process; wrap in sorted()"),
                pass_name="lint", subject=self.path,
                line=getattr(iter_node, "lineno", 0)))

    def visit_For(self, node: ast.For) -> None:
        self._flag(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: Any) -> None:
        for gen in node.generators:
            self._flag(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    def visit_Call(self, node: ast.Call) -> None:
        # sorted(s) / len(s) / ",".join(sorted(s)) are order-safe; skip
        # flagging their direct arguments by not descending into a
        # neutralizer call's arg when it is a known set name.
        name = _dotted(node.func)
        tail = name.rsplit(".", 1)[-1] if name else ""
        if tail in _ORDER_NEUTRALIZERS:
            for arg in node.args:
                if not (isinstance(arg, ast.Name) or self._is_set_expr(arg)):
                    self.visit(arg)
            for kw in node.keywords:
                self.visit(kw.value)
            return
        self.generic_visit(node)


def _check_set_iteration(tree: ast.Module, path: str) -> Iterator[Finding]:
    finder = _SetIterationFinder(path)
    finder.visit(tree)
    yield from finder.findings


def _check_bare_assert(tree: ast.Module, path: str) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield Finding(
                code="bare-assert", severity=Severity.ERROR,
                message=("assert statement in library code is stripped "
                         "under python -O; raise a repro.errors "
                         "exception instead"),
                pass_name="lint", subject=path, line=node.lineno)


def _check_env_read(tree: ast.Module, path: str) -> Iterator[Finding]:
    for node in ast.walk(tree):
        what = ""
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in _ENV_READERS):
            what = f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names = sorted(a.name for a in node.names
                           if a.name in _ENV_READERS)
            if names:
                what = "from os import " + ", ".join(names)
        if what:
            yield Finding(
                code="env-read", severity=Severity.ERROR,
                message=(f"{what} reads the process environment; ambient "
                         f"configuration makes a replay depend on its "
                         f"shell — take an explicit argument instead"),
                pass_name="lint", subject=path, line=node.lineno)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def lint_source(source: str, path: str = "<string>",
                rules: Sequence[str] = RULES) -> AnalysisReport:
    """Lint one Python source string; ``path`` labels the findings."""
    for rule in rules:
        if rule not in RULES:
            raise ValueError(f"unknown lint rule {rule!r}; "
                             f"expected one of {RULES}")
    report = AnalysisReport()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.add(Finding(
            code="syntax-error", severity=Severity.ERROR,
            message=str(exc), pass_name="lint", subject=path,
            line=exc.lineno or 0))
        return report
    pragmas = parse_pragmas(source)
    raw: List[Finding] = []
    if "mutable-global" in rules:
        raw.extend(_check_mutable_globals(tree, path))
    if "unseeded-random" in rules or "wall-clock" in rules:
        raw.extend(f for f in _check_random_and_clock(tree, path)
                   if f.code in rules)
    if "set-iteration" in rules:
        raw.extend(_check_set_iteration(tree, path))
    if "bare-assert" in rules:
        raw.extend(_check_bare_assert(tree, path))
    if "env-read" in rules:
        raw.extend(_check_env_read(tree, path))
    raw.sort(key=lambda f: (f.line, f.code))
    for finding in raw:
        if not _suppressed(pragmas, finding.line, finding.code):
            report.add(finding)
    return report


def lint_file(path: Path, root: Optional[Path] = None,
              rules: Sequence[str] = RULES) -> AnalysisReport:
    label = str(path.relative_to(root)) if root else str(path)
    return lint_source(path.read_text(encoding="utf-8"), label, rules)


def iter_python_files(root: Path) -> Iterator[Path]:
    if root.is_file():
        yield root
        return
    yield from sorted(root.rglob("*.py"))


def lint_paths(paths: Iterable[Path],
               rules: Sequence[str] = RULES) -> AnalysisReport:
    """Lint every ``*.py`` under each path; subjects are relative when a
    directory root is given."""
    report = AnalysisReport()
    for root in paths:
        root = Path(root)
        base = root if root.is_dir() else root.parent
        for file in iter_python_files(root):
            report.merge(lint_file(file, root=base, rules=rules))
    return report


def apply_baseline(report: AnalysisReport,
                   baseline: AnalysisReport
                   ) -> Tuple[AnalysisReport, List[Finding]]:
    """Subtract accepted findings; also report baseline entries that no
    longer fire (stale — the baseline should shrink with them)."""
    accepted = {(f.subject, f.code, f.line) for f in baseline.findings}
    fresh = AnalysisReport(
        [f for f in report.findings
         if (f.subject, f.code, f.line) not in accepted])
    current = {(f.subject, f.code, f.line) for f in report.findings}
    stale = [f for f in baseline.findings
             if (f.subject, f.code, f.line) not in current]
    return fresh, stale


__all__ = [
    "RULES",
    "apply_baseline",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "parse_pragmas",
]
