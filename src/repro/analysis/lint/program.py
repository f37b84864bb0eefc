"""The whole-program model behind the cross-file lint rules.

The legacy linter saw one file at a time; the RSL rule family needs to
follow a call from a loop in one module into the callee's definition in
another.  This module supplies exactly that machinery:

* :class:`ModuleInfo` -- one parsed file: AST, source lines, a
  best-effort dotted module name (derived from the path's ``repro``
  package root), the import maps, and indexes of top-level functions
  and classes.  Every file is parsed **once**; per-rule work caches
  hang off :attr:`ModuleInfo.cache`.
* :class:`Program` -- the modules in deterministic load order plus the
  cross-module indexes (dotted name -> module, method name -> defining
  methods) and the resolution helpers.

Resolution is deliberately *best effort and sound-for-linting*: a callee
we cannot resolve contributes no edge (rules stay quiet rather than
guess), and every traversal is bounded and deterministically ordered, so
a lint run is a pure function of the file contents.  The supported
callees:

* a plain ``Name`` -- a local ``def`` or a ``from x import f`` alias
  (calling a class enters its ``__init__``);
* an ``obj.method`` attribute -- through the import map for module
  attributes, ``self`` for the enclosing class, and a unique-method-name
  fallback across the program otherwise.
"""

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "Program",
    "module_name_for",
]


def module_name_for(path: str) -> str:
    """Best-effort dotted module name for *path*.

    Anchored at the innermost ``repro`` directory (``src/repro/core/x.py``
    -> ``repro.core.x``) so the path-sensitive rules see the same module
    names from a checkout, an installed tree, or a materialised fixture
    tree.  Files outside a ``repro`` package keep their bare stem.
    """
    parts = Path(path).parts
    stem = Path(path).stem
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            dotted = list(parts[index:-1])
            if stem != "__init__":
                dotted.append(stem)
            return ".".join(dotted)
    return stem


class FunctionInfo:
    """One function or method definition, tied back to its module."""

    __slots__ = ("module", "node", "qualname", "owner_class")

    def __init__(
        self,
        module: "ModuleInfo",
        node: ast.AST,
        qualname: str,
        owner_class: Optional["ClassInfo"] = None,
    ):
        self.module = module
        self.node = node
        self.qualname = qualname
        self.owner_class = owner_class

    @property
    def key(self) -> Tuple[str, str]:
        """Deterministic identity: ``(module path, qualified name)``."""
        return (self.module.path, self.qualname)

    def __repr__(self) -> str:
        return "FunctionInfo(%s:%s)" % (self.module.path, self.qualname)


class ClassInfo:
    """One top-level class definition and its directly-defined methods."""

    __slots__ = ("module", "node", "methods")

    def __init__(self, module: "ModuleInfo", node: ast.ClassDef):
        self.module = module
        self.node = node
        self.methods: Dict[str, FunctionInfo] = {}
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[statement.name] = FunctionInfo(
                    module,
                    statement,
                    "%s.%s" % (node.name, statement.name),
                    owner_class=self,
                )

    def __repr__(self) -> str:
        return "ClassInfo(%s:%s)" % (self.module.path, self.node.name)


class ModuleInfo:
    """One parsed source file plus the per-module lint indexes."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.name = module_name_for(path)
        self.source = source
        self.tree = tree
        self.lines: List[str] = source.splitlines()
        #: per-rule memo space (e.g. the fused legacy pass caches here)
        self.cache: Dict[str, object] = {}

        #: ``import x [as y]`` -- local name -> dotted module
        self.imports: Dict[str, str] = {}
        #: ``from m import a [as b]`` -- local name -> (module, attribute)
        self.import_from: Dict[str, Tuple[str, str]] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

        self._index()

    # -- indexing ------------------------------------------------------- #

    def _index(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.level == 0:
                    for alias in node.names:
                        if alias.name != "*":
                            self.import_from[alias.asname or alias.name] = (
                                node.module,
                                alias.name,
                            )

        for statement in self.tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[statement.name] = FunctionInfo(
                    self, statement, statement.name
                )
            elif isinstance(statement, ast.ClassDef):
                self.classes[statement.name] = ClassInfo(self, statement)

    # -- convenience ---------------------------------------------------- #

    def line(self, lineno: int) -> str:
        if 0 < lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def iter_functions(self) -> Iterable[FunctionInfo]:
        """Every function and method, in deterministic source order."""
        for name in self.functions:
            yield self.functions[name]
        for cls in self.classes.values():
            for method in cls.methods.values():
                yield method

    def __repr__(self) -> str:
        return "ModuleInfo(%s as %s)" % (self.path, self.name)


#: Bound on every resolution recursion: ``from x import y`` re-export
#: chains in this codebase are short; the bound is a cycle guard, not a
#: tuning knob.
_RESOLVE_DEPTH = 6


class Program:
    """The parsed modules plus the cross-module resolution indexes."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules: List[ModuleInfo] = list(modules)
        #: per-run memo space (e.g. the RSL pass is shared by 2 rules)
        self.cache: Dict[str, object] = {}
        self.by_name: Dict[str, ModuleInfo] = {}
        for module in self.modules:
            self.by_name.setdefault(module.name, module)
        #: method name -> every defining method (the unique-name fallback)
        self.method_index: Dict[str, List[FunctionInfo]] = {}
        for module in self.modules:
            for cls in module.classes.values():
                for method in cls.methods.values():
                    self.method_index.setdefault(method.node.name, []).append(method)

    # -- name-level resolution ------------------------------------------ #

    def module_ref(self, module: ModuleInfo, local_name: str) -> Optional[ModuleInfo]:
        """The module *local_name* denotes in *module*, if it is one.

        Covers both ``import x.y as local`` and the
        ``from pkg import submodule`` spelling (``from repro.foundations
        import knobs``), resolved against the program's own modules.
        """
        if local_name in module.imports:
            return self.by_name.get(module.imports[local_name])
        if local_name in module.import_from:
            source, attribute = module.import_from[local_name]
            return self.by_name.get("%s.%s" % (source, attribute))
        return None

    def resolve_name(self, module: ModuleInfo, name: str, _depth: int = 0):
        """What top-level object *name* denotes in *module*.

        Returns a :class:`FunctionInfo`, a :class:`ClassInfo`, or ``None``
        -- chasing ``from x import y`` chains through modules the program
        actually contains (an external import resolves to ``None``).
        """
        if _depth > _RESOLVE_DEPTH:
            return None
        if name in module.functions:
            return module.functions[name]
        if name in module.classes:
            return module.classes[name]
        if name in module.import_from:
            source_name, attribute = module.import_from[name]
            source = self.by_name.get(source_name)
            if source is not None and source is not module:
                return self.resolve_name(source, attribute, _depth + 1)
        return None

    def resolve_callee(
        self,
        module: ModuleInfo,
        callee: ast.expr,
        owner_class: Optional[ClassInfo] = None,
    ) -> List[FunctionInfo]:
        """The functions a ``Call`` with func *callee* may enter.

        Call-graph semantics: calling a class resolves to its
        ``__init__`` (construction runs in the caller's process); an
        unresolvable callee resolves to nothing.
        """
        if isinstance(callee, ast.Name):
            target = self.resolve_name(module, callee.id)
            if isinstance(target, FunctionInfo):
                return [target]
            if isinstance(target, ClassInfo):
                init = target.methods.get("__init__")
                return [init] if init is not None else []
            return []
        if isinstance(callee, ast.Attribute):
            value = callee.value
            if isinstance(value, ast.Name):
                if value.id == "self" and owner_class is not None:
                    method = owner_class.methods.get(callee.attr)
                    if method is not None:
                        return [method]
                source = self.module_ref(module, value.id)
                if source is not None:
                    target = self.resolve_name(source, callee.attr)
                    if isinstance(target, FunctionInfo):
                        return [target]
                    if isinstance(target, ClassInfo):
                        init = target.methods.get("__init__")
                        return [init] if init is not None else []
                    return []
            candidates = self.method_index.get(callee.attr, ())
            if len(candidates) == 1:
                return [candidates[0]]
            return []
        return []
