"""Whole-program index for the taint engine.

Builds, from a set of parsed files, everything interprocedural analysis
needs to resolve a call expression to a function definition:

* a module table (dotted name -> parsed AST + symbol tables);
* per-module import maps, with relative imports resolved against the
  module's package and ``from X import Y`` chains followed through
  re-exporting ``__init__`` modules (so ``obs.emit`` lands on
  ``repro.obs.recorder.emit``);
* per-class method tables, base-class links, and attribute types
  inferred from ``__init__`` — both annotated parameters stored on
  ``self`` (``self._channel = channel`` with ``channel: Channel``) and
  direct constructions (``self.mailbox = Channel()``).

Resolution is purely syntactic and deterministic; anything it cannot
pin down stays unresolved and the engine falls back to conservative
propagation.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["FunctionInfo", "ClassInfo", "ModuleInfo", "ProgramGraph"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclasses.dataclass
class FunctionInfo:
    """One analyzable function/method definition."""

    qualname: str          # pkg.mod.Class.fn or pkg.mod.fn
    module: str            # pkg.mod
    node: FunctionNode
    display_path: str
    class_name: Optional[str] = None   # owning class qualname, if a method

    @property
    def params(self) -> List[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        if args.vararg:
            names.append(args.vararg.arg)
        names.extend(a.arg for a in args.kwonlyargs)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names


@dataclasses.dataclass
class ClassInfo:
    """One class: methods, bases (as written), inferred attribute types."""

    qualname: str
    module: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = dataclasses.field(default_factory=dict)
    base_exprs: List[ast.expr] = dataclasses.field(default_factory=list)
    attr_types: Dict[str, str] = dataclasses.field(default_factory=dict)  # attr -> class qualname
    # attr -> element class qualname for container-typed attributes
    # (``self.sbss: List[SBSAgent]`` -> agents pulled out of the list
    # keep their type for method dispatch)
    attr_elem_types: Dict[str, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class ModuleInfo:
    """One parsed module and its top-level symbol tables."""

    name: str
    path: Path
    display_path: str
    tree: ast.Module
    functions: Dict[str, FunctionInfo] = dataclasses.field(default_factory=dict)
    classes: Dict[str, ClassInfo] = dataclasses.field(default_factory=dict)
    # local binding -> dotted target: "Channel" -> "repro.network.messaging.Channel",
    # "obs" -> "repro.obs", "np" -> "numpy"
    imports: Dict[str, str] = dataclasses.field(default_factory=dict)
    is_package: bool = False


def _strip_annotation(node: Optional[ast.expr]) -> Optional[str]:
    """The class name inside an annotation, unwrapping Optional/quotes.

    ``Optional[LaplacePrivacyMechanism]`` -> ``LaplacePrivacyMechanism``;
    ``Union[int, Channel]`` and subscripted generics resolve to their
    single non-``None`` class-looking argument when unambiguous.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        base = _strip_annotation(node.value)
        if base in ("Optional", "Union"):
            inner = node.slice
            candidates = list(inner.elts) if isinstance(inner, ast.Tuple) else [inner]
            names = []
            for candidate in candidates:
                if isinstance(candidate, ast.Constant) and candidate.value is None:
                    continue
                name = _strip_annotation(candidate)
                if name is not None:
                    names.append(name)
            if len(names) == 1:
                return names[0]
    return None


#: Generic container heads whose single element type is worth tracking.
_CONTAINER_HEADS = {
    "List",
    "list",
    "Sequence",
    "MutableSequence",
    "Iterable",
    "Iterator",
    "Set",
    "set",
    "FrozenSet",
    "frozenset",
    "Deque",
    "deque",
    "Tuple",
    "tuple",
}


def _strip_elem_annotation(node: Optional[ast.expr]) -> Optional[str]:
    """Element class name of a container annotation (``List[SBSAgent]``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if not isinstance(node, ast.Subscript):
        return None
    head = _strip_annotation(node.value)
    if head not in _CONTAINER_HEADS:
        return None
    inner = node.slice
    if isinstance(inner, ast.Tuple):
        # Tuple[X, ...] homogeneous form only.
        elts = [e for e in inner.elts if not (isinstance(e, ast.Constant) and e.value is Ellipsis)]
        if len(elts) != 1:
            return None
        inner = elts[0]
    return _strip_annotation(inner)


class ProgramGraph:
    """Module/class/function index with cross-module name resolution."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

    # -- construction --------------------------------------------------
    def add_module(
        self, name: str, path: Path, display_path: str, tree: ast.Module
    ) -> ModuleInfo:
        info = ModuleInfo(
            name=name,
            path=path,
            display_path=display_path,
            tree=tree,
            is_package=path.name == "__init__.py",
        )
        self.modules[name] = info
        self._index_imports(info)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(info, node)
        return info

    def _add_function(
        self, module: ModuleInfo, node: FunctionNode, class_name: Optional[str]
    ) -> FunctionInfo:
        prefix = class_name if class_name else module.name
        qualname = f"{prefix}.{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            module=module.name,
            node=node,
            display_path=module.display_path,
            class_name=class_name,
        )
        self.functions[qualname] = info
        if class_name is None:
            module.functions[node.name] = info
        return info

    def _add_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        info = ClassInfo(
            qualname=qualname,
            module=module.name,
            node=node,
            base_exprs=list(node.bases),
        )
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[child.name] = self._add_function(module, child, qualname)
        self.classes[qualname] = info
        module.classes[node.name] = info

    def _index_imports(self, module: ModuleInfo) -> None:
        package_parts = module.name.split(".")
        if not module.is_package:
            package_parts = package_parts[:-1]
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    module.imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    cut = len(package_parts) - (node.level - 1)
                    if cut < 0:
                        continue
                    base_parts = package_parts[:cut]
                    base = ".".join(base_parts)
                    if node.module:
                        base = f"{base}.{node.module}" if base else node.module
                else:
                    base = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    module.imports[bound] = f"{base}.{alias.name}" if base else alias.name

    def finalize(self) -> None:
        """Infer class attribute types; call after every module is added."""
        for info in self.classes.values():
            self._infer_attr_types(info)

    def _infer_attr_types(self, cls: ClassInfo) -> None:
        init = cls.methods.get("__init__")
        if init is None:
            return
        node = init.node
        param_types: Dict[str, str] = {}
        param_elem_types: Dict[str, str] = {}
        for arg in list(node.args.posonlyargs) + list(node.args.args) + list(node.args.kwonlyargs):
            name = _strip_annotation(arg.annotation)
            if name is not None:
                resolved = self.resolve_name(cls.module, name)
                if isinstance(resolved, ClassInfo):
                    param_types[arg.arg] = resolved.qualname
            elem = _strip_elem_annotation(arg.annotation)
            if elem is not None:
                resolved = self.resolve_name(cls.module, elem)
                if isinstance(resolved, ClassInfo):
                    param_elem_types[arg.arg] = resolved.qualname
        for stmt in ast.walk(node):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
                if (
                    isinstance(stmt.target, ast.Attribute)
                    and isinstance(stmt.target.value, ast.Name)
                    and stmt.target.value.id == "self"
                ):
                    annotated = _strip_annotation(stmt.annotation)
                    if annotated is not None:
                        resolved = self.resolve_name(cls.module, annotated)
                        if isinstance(resolved, ClassInfo):
                            cls.attr_types[stmt.target.attr] = resolved.qualname
                    elem = _strip_elem_annotation(stmt.annotation)
                    if elem is not None:
                        resolved = self.resolve_name(cls.module, elem)
                        if isinstance(resolved, ClassInfo):
                            cls.attr_elem_types[stmt.target.attr] = resolved.qualname
            if value is None:
                continue
            inferred: Optional[str] = None
            inferred_elem: Optional[str] = None
            if isinstance(value, ast.Name):
                inferred = param_types.get(value.id)
                inferred_elem = param_elem_types.get(value.id)
            elif isinstance(value, ast.Call):
                resolved = self.resolve_expr(cls.module, value.func)
                if isinstance(resolved, ClassInfo):
                    inferred = resolved.qualname
            if inferred is None and inferred_elem is None:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    if inferred is not None:
                        cls.attr_types.setdefault(target.attr, inferred)
                    if inferred_elem is not None:
                        cls.attr_elem_types.setdefault(target.attr, inferred_elem)

    # -- resolution ----------------------------------------------------
    def resolve_dotted(
        self, dotted: str, *, _depth: int = 0
    ) -> Optional[Union[FunctionInfo, ClassInfo, ModuleInfo]]:
        """Resolve an absolute dotted name, following re-export chains."""
        if _depth > 8:
            return None
        if dotted in self.modules:
            return self.modules[dotted]
        if dotted in self.functions:
            return self.functions[dotted]
        if dotted in self.classes:
            return self.classes[dotted]
        if "." not in dotted:
            return None
        prefix, leaf = dotted.rsplit(".", 1)
        container = self.resolve_dotted(prefix, _depth=_depth + 1)
        if isinstance(container, ModuleInfo):
            if leaf in container.functions:
                return container.functions[leaf]
            if leaf in container.classes:
                return container.classes[leaf]
            if leaf in container.imports:
                return self.resolve_dotted(container.imports[leaf], _depth=_depth + 1)
            submodule = f"{container.name}.{leaf}"
            if submodule in self.modules:
                return self.modules[submodule]
        if isinstance(container, ClassInfo):
            return self.resolve_method(container, leaf)
        return None

    def resolve_name(
        self, module_name: str, name: str
    ) -> Optional[Union[FunctionInfo, ClassInfo, ModuleInfo]]:
        """Resolve a bare name as seen from ``module_name``'s scope."""
        module = self.modules.get(module_name)
        if module is None:
            return None
        if name in module.functions:
            return module.functions[name]
        if name in module.classes:
            return module.classes[name]
        if name in module.imports:
            return self.resolve_dotted(module.imports[name])
        return None

    def resolve_expr(
        self, module_name: str, node: ast.expr
    ) -> Optional[Union[FunctionInfo, ClassInfo, ModuleInfo]]:
        """Resolve ``Name``/``Attribute`` chains like ``obs.emit``."""
        if isinstance(node, ast.Name):
            return self.resolve_name(module_name, node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve_expr(module_name, node.value)
            if isinstance(base, ModuleInfo):
                return self.resolve_dotted(f"{base.name}.{node.attr}")
            if isinstance(base, ClassInfo):
                return self.resolve_method(base, node.attr)
            return None
        return None

    def resolve_method(
        self, cls: ClassInfo, name: str, *, _depth: int = 0
    ) -> Optional[FunctionInfo]:
        """Look ``name`` up on ``cls``, walking base classes (C3-free MRO)."""
        if _depth > 8:
            return None
        if name in cls.methods:
            return cls.methods[name]
        for base_expr in cls.base_exprs:
            resolved = self.resolve_expr(cls.module, base_expr)
            if isinstance(resolved, ClassInfo):
                found = self.resolve_method(resolved, name, _depth=_depth + 1)
                if found is not None:
                    return found
        return None

    def attr_type(self, class_qualname: Optional[str], attr: str) -> Optional[str]:
        """Inferred type (class qualname) of ``self.<attr>`` on a class."""
        seen = 0
        current = class_qualname
        while current is not None and seen < 8:
            cls = self.classes.get(current)
            if cls is None:
                return None
            if attr in cls.attr_types:
                return cls.attr_types[attr]
            parent: Optional[str] = None
            for base_expr in cls.base_exprs:
                resolved = self.resolve_expr(cls.module, base_expr)
                if isinstance(resolved, ClassInfo):
                    parent = resolved.qualname
                    break
            current = parent
            seen += 1
        return None

    def attr_elem_type(self, class_qualname: Optional[str], attr: str) -> Optional[str]:
        """Element type of a container-typed ``self.<attr>``, if inferred."""
        seen = 0
        current = class_qualname
        while current is not None and seen < 8:
            cls = self.classes.get(current)
            if cls is None:
                return None
            if attr in cls.attr_elem_types:
                return cls.attr_elem_types[attr]
            parent: Optional[str] = None
            for base_expr in cls.base_exprs:
                resolved = self.resolve_expr(cls.module, base_expr)
                if isinstance(resolved, ClassInfo):
                    parent = resolved.qualname
                    break
            current = parent
            seen += 1
        return None

    def param_type(self, func: FunctionInfo, param: str) -> Optional[str]:
        """Annotated class type of parameter ``param``, if resolvable."""
        args = func.node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.arg != param:
                continue
            name = _strip_annotation(arg.annotation)
            if name is None:
                return None
            resolved = self.resolve_name(func.module, name)
            if isinstance(resolved, ClassInfo):
                return resolved.qualname
            return None
        return None

    def param_elem_type(self, func: FunctionInfo, param: str) -> Optional[str]:
        """Element type of a container-annotated parameter, if inferred."""
        args = func.node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.arg != param:
                continue
            elem = _strip_elem_annotation(arg.annotation)
            if elem is None:
                return None
            resolved = self.resolve_name(func.module, elem)
            if isinstance(resolved, ClassInfo):
                return resolved.qualname
            return None
        return None

    def all_functions(self) -> List[FunctionInfo]:
        """Every indexed function, deterministically ordered."""
        return [self.functions[name] for name in sorted(self.functions)]
