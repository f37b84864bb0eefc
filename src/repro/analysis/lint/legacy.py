"""The eight pre-refactor lint rules, as one fused module pass.

Ported **verbatim** from the monolithic ``tools/lint_repro.py`` (since
deleted; this package is the only entry point): visitor structure, scope
tracking and finding positions are unchanged, and the golden test
``tests/goldens/lint_legacy_fixture.json`` -- generated with the
pre-refactor tool -- pins the output byte for byte.  Two messages have
been reworded since, ENV001's and MC001's, because they named retired
knobs and the retired interning mode; the golden was regenerated for
that change only.

Like flake8's checkers, the eight rules share a single AST walk: the
:class:`_Linter` visitor and the :class:`_CacheScan` second pass run
once per module (cached on :attr:`ModuleInfo.cache`), and each
registered rule filters the fused result by its code.  Registering them
individually keeps the ``--select`` / ``--ignore`` surface and the
generated docs table uniform across old and new rules.

The rules (full rationale in the generated table in ``docs/ANALYSIS.md``):

* ``ID001`` -- call to the builtin ``id()``: object ids are recycled
  after garbage collection, so an id is never a sound cache/dedup key.
* ``DEF001`` -- mutable default argument, evaluated once and shared.
* ``EXC001`` -- bare ``except:`` swallows KeyboardInterrupt/SystemExit.
* ``HC001`` -- direct ``Literal(...)``/``SigmaType(...)`` construction
  in ``repro/core`` hot paths.
* ``ENV001`` -- environment read at import time; knobs are call-time.
* ``TIME001`` -- ``time.time()`` for durations; use the monotonic clock.
* ``MC001`` -- module-level dict cache not cleared with the intern tables
  (exempt: ``# mode-ok:`` or a ``register_*`` lifecycle hook).
* ``ORD001`` -- iteration over an unordered container in a ``repro``
  package (exempt: ``# order-ok:``).
"""

import ast
from pathlib import Path
from typing import List, Sequence

from repro.analysis.lint.findings import Finding
from repro.analysis.lint.program import ModuleInfo
from repro.analysis.lint.registry import LintRule, register_rule

__all__ = ["fused_findings", "LEGACY_CODES"]

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = ("list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque")


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id in _MUTABLE_CALLS:
            return True
        if isinstance(callee, ast.Attribute) and callee.attr in _MUTABLE_CALLS:
            return True
    return False


_HOT_CONSTRUCTORS = ("Literal", "SigmaType")


def _in_hot_tree(path: str) -> bool:
    """Whether *path* lies under a ``repro/core`` directory."""
    parts = Path(path).parts
    return any(
        parts[i : i + 2] == ("repro", "core") for i in range(len(parts) - 1)
    )


def _in_repro_tree(path: str) -> bool:
    """Whether *path* lies under a ``repro`` package directory."""
    return "repro" in Path(path).parts[:-1]


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, lines: Sequence[str] = ()):
        self.path = path
        self.lines = lines
        self.findings: List[Finding] = []
        self._id_shadowed = 0
        self._hot_tree = _in_hot_tree(path)
        self._repro_tree = _in_repro_tree(path)
        # ENV001 scope tracking: 0 = import time (module level, class body,
        # decorators and defaults of top-level functions), >0 = call time.
        self._function_depth = 0
        self._os_modules = {"os"}
        self._os_aliases: set = set()
        self._time_modules = {"time"}
        self._time_aliases: set = set()

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(self.path, node.lineno, node.col_offset, code, message)
        )

    # ID001 ------------------------------------------------------------- #

    def _shadows_id(self, node) -> bool:
        """Whether a function definition rebinds ``id`` as a parameter."""
        arguments = node.args
        names = [
            a.arg
            for a in (
                list(arguments.posonlyargs)
                + list(arguments.args)
                + list(arguments.kwonlyargs)
            )
        ]
        for extra in (arguments.vararg, arguments.kwarg):
            if extra is not None:
                names.append(extra.arg)
        return "id" in names

    def _visit_function(self, node) -> None:
        shadowed = self._shadows_id(node)
        self._check_defaults(node)
        self._id_shadowed += shadowed
        # Decorators, argument defaults and annotations evaluate in the
        # *enclosing* scope (import time for a top-level def); only the
        # body is deferred to call time -- ENV001 depends on the split.
        for decorator in node.decorator_list:
            self.visit(decorator)
        self.visit(node.args)
        if node.returns is not None:
            self.visit(node.returns)
        self._function_depth += 1
        for statement in node.body:
            self.visit(statement)
        self._function_depth -= 1
        self._id_shadowed -= shadowed

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        shadowed = self._shadows_id(node)
        self._id_shadowed += shadowed
        self.visit(node.args)
        self._function_depth += 1
        self.visit(node.body)
        self._function_depth -= 1
        self._id_shadowed -= shadowed

    def visit_Call(self, node: ast.Call) -> None:
        callee = node.func
        if (
            isinstance(callee, ast.Name)
            and callee.id == "id"
            and not self._id_shadowed
        ):
            self._report(
                node,
                "ID001",
                "call to builtin id(): object ids are recycled after garbage "
                "collection and must never serve as cache/dedup keys",
            )
        self._check_hot_construction(node)
        self._check_wall_clock(node)
        self.generic_visit(node)

    # TIME001 ------------------------------------------------------------ #

    _TIME001_MESSAGE = (
        "time.time() is the steppable wall clock: durations and deadlines "
        "must use time.monotonic() (see repro.foundations.resilience."
        "Deadline) or time.perf_counter() for benchmark timing"
    )

    def _check_wall_clock(self, node: ast.Call) -> None:
        callee = node.func
        if (
            isinstance(callee, ast.Attribute)
            and callee.attr == "time"
            and isinstance(callee.value, ast.Name)
            and callee.value.id in self._time_modules
        ):
            self._report(node, "TIME001", self._TIME001_MESSAGE)
        elif isinstance(callee, ast.Name) and callee.id in self._time_aliases:
            self._report(node, "TIME001", self._TIME001_MESSAGE)

    # HC001 ------------------------------------------------------------- #

    def _check_hot_construction(self, node: ast.Call) -> None:
        if not self._hot_tree:
            return
        callee = node.func
        name = None
        if isinstance(callee, ast.Name):
            name = callee.id
        elif isinstance(callee, ast.Attribute):
            name = callee.attr
        if name in _HOT_CONSTRUCTORS:
            self._report(
                node,
                "HC001",
                "direct %s(...) construction in a repro/core hot path: "
                "derive guards through the cached helpers (x_part, rename, "
                "with_literals, eq/neq/rel) or hoist construction out of "
                "the loop" % name,
            )

    # ORD001 ------------------------------------------------------------ #

    _ORD001_MESSAGE = (
        "iteration over an unordered %s: hash order leaks into diagnostic "
        "ordering, report rendering or worklist seeding and varies across "
        "runs and interning modes; wrap the iterable in sorted(...) or "
        "annotate '# order-ok: <why>' when the order provably cannot "
        "reach any output"
    )

    def _unordered_kind(self, node: ast.expr):
        """What unordered container *node* is, or ``None``."""
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id in ("set", "frozenset"):
                return "%s(...) call" % callee.id
            if isinstance(callee, ast.Attribute) and callee.attr == "keys":
                return ".keys() view"
        if isinstance(node, ast.Set):
            return "set literal"
        if isinstance(node, ast.SetComp):
            return "set comprehension"
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # set algebra (union/intersection/difference) over an
            # unordered operand is itself unordered
            return self._unordered_kind(node.left) or self._unordered_kind(
                node.right
            )
        return None

    def _order_exempt(self, node: ast.expr) -> bool:
        line = ""
        if 0 < node.lineno <= len(self.lines):
            line = self.lines[node.lineno - 1]
        return "# order-ok:" in line

    def _check_unordered_iter(self, iterable: ast.expr) -> None:
        if not self._repro_tree:
            return
        kind = self._unordered_kind(iterable)
        if kind is not None and not self._order_exempt(iterable):
            self._report(iterable, "ORD001", self._ORD001_MESSAGE % kind)

    def visit_For(self, node: ast.For) -> None:
        self._check_unordered_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_unordered_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_unordered_iter(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # DEF001 ------------------------------------------------------------ #

    def _check_defaults(self, node) -> None:
        arguments = node.args
        for default in list(arguments.defaults) + [
            d for d in arguments.kw_defaults if d is not None
        ]:
            if _is_mutable_default(default):
                self._report(
                    default,
                    "DEF001",
                    "mutable default argument: evaluated once and shared "
                    "across calls; default to None and build inside",
                )

    # ENV001 ------------------------------------------------------------ #

    _ENV001_MESSAGE = (
        "environment read at import time: knobs like REPRO_DEADLINE_MS "
        "must be read at call time so tests can flip them per call (see "
        "repro.foundations.knobs.value)"
    )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "os":
                self._os_modules.add(alias.asname or alias.name)
            if alias.name == "time":
                self._time_modules.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv"):
                    self._os_aliases.add(alias.asname or alias.name)
        if node.module == "time":
            for alias in node.names:
                if alias.name == "time":
                    self._time_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            self._function_depth == 0
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id in self._os_modules
        ):
            self._report(node, "ENV001", self._ENV001_MESSAGE)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if (
            self._function_depth == 0
            and isinstance(node.ctx, ast.Load)
            and node.id in self._os_aliases
        ):
            self._report(node, "ENV001", self._ENV001_MESSAGE)
        self.generic_visit(node)

    # EXC001 ------------------------------------------------------------ #

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                node,
                "EXC001",
                "bare except: swallows KeyboardInterrupt/SystemExit; catch a "
                "concrete exception class",
            )
        self.generic_visit(node)


# MC001 --------------------------------------------------------------- #

_MC001_MESSAGE = (
    "module-level dict cache %r is mutated inside functions but is not "
    "cleared with the intern tables: interned values cached across "
    "clear_intern_tables() break identity-is-equality; clear it via "
    "register_clear_listener(...) or mark the assignment "
    "'# mode-ok: <why>' if it holds no interned values"
)


def _is_dict_expr(node: ast.expr) -> bool:
    """A ``{}`` / ``{...: ...}`` literal or a bare ``dict(...)`` call."""
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
    )


class _CacheScan(ast.NodeVisitor):
    """Second pass for MC001: which candidate names are grown inside
    functions, and which appear inside a ``register_*`` call (i.e. have a
    registered lifecycle hook such as a mode listener)."""

    def __init__(self, names):
        self.names = names
        self.mutated: set = set()
        self.registered: set = set()
        self._depth = 0

    def _function(self, node) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = _function
    visit_AsyncFunctionDef = _function
    visit_Lambda = _function

    def _note_subscript_store(self, target: ast.expr) -> None:
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and target.value.id in self.names
        ):
            self.mutated.add(target.value.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._depth:
            for target in node.targets:
                self._note_subscript_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._depth:
            self._note_subscript_store(node.target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        callee = node.func
        if (
            self._depth
            and isinstance(callee, ast.Attribute)
            and callee.attr in ("setdefault", "update")
            and isinstance(callee.value, ast.Name)
            and callee.value.id in self.names
        ):
            self.mutated.add(callee.value.id)
        name = None
        if isinstance(callee, ast.Name):
            name = callee.id
        elif isinstance(callee, ast.Attribute):
            name = callee.attr
        if name is not None and name.startswith("register_"):
            for descendant in ast.walk(node):
                if isinstance(descendant, ast.Name) and descendant.id in self.names:
                    self.registered.add(descendant.id)
        self.generic_visit(node)


def _module_cache_findings(
    tree: ast.Module, lines: Sequence[str], path: str
) -> List[Finding]:
    if not _in_repro_tree(path):
        return []
    candidates = {}
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets, value = [statement.target], statement.value
        else:
            continue
        if not _is_dict_expr(value):
            continue
        line = lines[statement.lineno - 1] if statement.lineno <= len(lines) else ""
        if "# mode-ok:" in line:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                candidates[target.id] = statement
    if not candidates:
        return []
    scan = _CacheScan(frozenset(candidates))
    scan.visit(tree)
    return [
        Finding(
            path,
            candidates[name].lineno,
            candidates[name].col_offset,
            "MC001",
            _MC001_MESSAGE % name,
        )
        for name in sorted(scan.mutated - scan.registered)
    ]


# ---------------------------------------------------------------------- #
# the fused pass + rule registrations
# ---------------------------------------------------------------------- #


def fused_findings(module: ModuleInfo) -> List[Finding]:
    """All eight legacy rules' findings for *module*, computed once."""
    cached = module.cache.get("legacy")
    if cached is None:
        linter = _Linter(module.path, module.lines)
        linter.visit(module.tree)
        findings = list(linter.findings)
        findings.extend(
            _module_cache_findings(module.tree, module.lines, module.path)
        )
        cached = module.cache["legacy"] = findings
    return cached


def _legacy_runner(code: str):
    def run(module, program, context):
        return [f for f in fused_findings(module) if f.code == code]

    return run


_LEGACY_RULES = (
    (
        "ID001",
        "id-as-key",
        "call to builtin `id()`: object ids are recycled after garbage "
        "collection and must never serve as cache/dedup keys",
    ),
    (
        "DEF001",
        "mutable-default",
        "mutable default argument: evaluated once at definition time and "
        "shared across calls",
    ),
    (
        "EXC001",
        "bare-except",
        "bare `except:` swallows `KeyboardInterrupt`/`SystemExit`; catch a "
        "concrete exception class",
    ),
    (
        "ENV001",
        "import-time-env-read",
        "`os.environ`/`os.getenv` read at import time: behaviour knobs must "
        "be read at call time so tests and A/B runs can flip them per call",
    ),
    (
        "HC001",
        "hot-path-construction",
        "direct `Literal(...)`/`SigmaType(...)` construction under "
        "`repro/core`: derive guards through the cached helpers or hoist "
        "construction out of the loop",
    ),
    (
        "TIME001",
        "wall-clock",
        "`time.time()` is the steppable wall clock: durations and deadlines "
        "use `time.monotonic()`, benchmark timing uses `time.perf_counter()`",
    ),
    (
        "MC001",
        "mode-blind-cache",
        "module-level dict cache mutated inside functions but not cleared "
        "with the intern tables (exempt: `# mode-ok:` or a `register_*` "
        "lifecycle hook)",
    ),
    (
        "ORD001",
        "unordered-iteration",
        "iteration over an unordered container in a `repro` package: hash "
        "order varies across runs and interning modes (exempt: "
        "`# order-ok:`)",
    ),
)

LEGACY_CODES = tuple(code for code, _name, _summary in _LEGACY_RULES)

for _code, _name, _summary in _LEGACY_RULES:
    register_rule(LintRule(_code, _name, "module", _summary, _legacy_runner(_code)))
