"""Restricted execution environment for mobile code.

The paper's first security mechanism (§3.5) is a sandbox limiting the
privileges of downloaded PADs.  Python's analogue of the JDK sandbox is a
controlled ``exec``: we hand the module a curated ``__builtins__`` (no
``open``, no ``eval``/``exec``, no attribute backdoors) and an ``__import__``
that only admits an allowlist of side-effect-free stdlib modules plus the
substrate packages a protocol adaptor legitimately needs.

This confines honest-but-buggy and casually-malicious code — the threat
model of the paper's prototype.  It is not a jail against a determined
adversary (no CPython-level sandbox is), and the docstring is the place to
say so plainly.
"""

from __future__ import annotations

import builtins as _builtins
import threading
from collections import OrderedDict
from types import CodeType
from typing import Any, Mapping, Optional

__all__ = ["SandboxViolation", "Sandbox", "DEFAULT_ALLOWED_IMPORTS",
           "CodeCache", "CODE_CACHE", "CODE_CACHE_ENTRIES"]


class SandboxViolation(Exception):
    """A mobile-code module attempted something outside its privileges."""


# Side-effect-free modules any protocol adaptor may use, plus the local
# substrates PADs are built on.  Everything else is denied.
DEFAULT_ALLOWED_IMPORTS = frozenset(
    {
        "__future__",
        "math",
        "struct",
        "hashlib",
        "zlib",
        "binascii",
        "itertools",
        "functools",
        "collections",
        "dataclasses",
        "time",  # protocols time their own phases via perf_counter
        "typing",
        "enum",
        "repro.compression",
        "repro.chunking",
        "repro.protocols.base",
    }
)

_SAFE_BUILTIN_NAMES = (
    "abs", "all", "any", "ascii", "bin", "bool", "bytearray", "bytes",
    "callable", "chr", "dict", "dir", "divmod", "enumerate", "filter", "float",
    "hasattr",
    "format", "frozenset", "hash", "hex", "int", "isinstance", "issubclass",
    "iter", "len", "list", "map", "max", "min", "next", "object", "oct",
    "ord", "pow", "print", "property", "range", "repr", "reversed", "round",
    "set", "slice", "sorted", "staticmethod", "classmethod", "str", "sum",
    "super", "tuple", "type", "zip",
    # Exceptions a well-behaved module raises or catches.
    "ArithmeticError", "AssertionError", "AttributeError", "BaseException",
    "Exception", "IndexError", "KeyError", "LookupError", "MemoryError",
    "NotImplementedError", "OverflowError", "RuntimeError", "StopIteration",
    "TypeError", "ValueError", "ZeroDivisionError",
    # Constants.
    "True", "False", "None", "NotImplemented", "Ellipsis",
    "__build_class__",  # required for 'class' statements
)

_DENIED_BUILTIN_NAMES = (
    "open", "eval", "exec", "compile", "input", "globals", "locals", "vars",
    "getattr", "setattr", "delattr", "memoryview", "breakpoint", "exit", "quit",
)


def _denied(name: str):
    def stub(*_a: Any, **_k: Any) -> Any:
        raise SandboxViolation(f"builtin {name!r} is not available in the sandbox")

    return stub


# Built once at import; each execution takes a *copy* (a PAD may rebind
# entries of its own ``__builtins__``) and sets its sandbox's ``__import__``.
_BUILTINS_TEMPLATE: dict[str, Any] = {
    name: getattr(_builtins, name)
    for name in _SAFE_BUILTIN_NAMES
    if getattr(_builtins, name, None) is not None
}
_BUILTINS_TEMPLATE.update((name, _denied(name)) for name in _DENIED_BUILTIN_NAMES)

# Compiled sources the process keeps; past it a flood of distinct
# (verified) sources evicts instead of growing.
CODE_CACHE_ENTRIES = 256


class CodeCache:
    """Bounded LRU of ``compile()`` results, keyed by the exact source text.

    A code object is immutable, so it is the one thing deployments share
    (a JVM parses a class file once and links it per loader).  The key is
    the whole ``(source, filename)`` — never a PAD id, a name or a digest
    somebody *claims* — so a hit returns exactly what compiling this text
    would, and a ``SyntaxError`` propagates and caches nothing.  Counters
    as on :class:`repro.cdn.cache.LRUCache`: ``hits + misses`` is the
    number of :meth:`compile` calls.  Compiling under the one lock parses
    each distinct source once however many threads race on it.
    """

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._items: OrderedDict[tuple[str, str], CodeType] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def compile(self, source: str, filename: str) -> CodeType:
        key = (source, filename)
        with self._lock:
            code = self._items.get(key)
            if code is not None:
                self._items.move_to_end(key)
                self.hits += 1
                return code
            self.misses += 1
            code = self._items[key] = compile(source, filename, "exec")
            if len(self._items) > self.max_entries:
                self._items.popitem(last=False)
                self.evictions += 1
            return code


# Reached only from Sandbox.execute, which ModuleLoader.deploy calls
# strictly after ModuleLoader.verify has passed for that client.
CODE_CACHE = CodeCache(CODE_CACHE_ENTRIES)


class Sandbox:
    """Executes mobile-code source in a restricted namespace."""

    def __init__(
        self,
        allowed_imports: Optional[frozenset[str]] = None,
        extra_globals: Optional[Mapping[str, Any]] = None,
    ):
        self.allowed_imports = (
            allowed_imports if allowed_imports is not None else DEFAULT_ALLOWED_IMPORTS
        )
        self.extra_globals = dict(extra_globals or {})
        self.import_log: list[str] = []

    def _guarded_import(
        self,
        name: str,
        globals_: Any = None,
        locals_: Any = None,
        fromlist: Any = (),
        level: int = 0,
    ) -> Any:
        if level != 0:
            raise SandboxViolation("relative imports are not permitted in mobile code")
        if name not in self.allowed_imports:
            raise SandboxViolation(f"import of {name!r} is not permitted")
        self.import_log.append(name)
        # Plain `import a.b.c` expects the top package back (the import
        # statement binds "a" and walks attributes itself); `from a.b
        # import x` passes a fromlist and gets the leaf. Standard
        # __import__ already implements both, so hand through unchanged.
        return __import__(name, globals_, locals_, fromlist, level)

    def _build_builtins(self) -> dict[str, Any]:
        return {**_BUILTINS_TEMPLATE, "__import__": self._guarded_import}

    def execute(self, source: str, module_name: str = "<mobile-code>") -> dict[str, Any]:
        """Exec ``source`` in a fresh restricted namespace; return it.

        Only the code object comes from the process-wide :data:`CODE_CACHE`;
        the namespace, its ``__builtins__`` and import guard are this call's.

        Any exception from the module body is re-raised wrapped in
        :class:`SandboxViolation` only if it *was* a violation; genuine
        bugs propagate as themselves so callers can distinguish.
        """
        code = CODE_CACHE.compile(source, module_name)
        namespace: dict[str, Any] = {
            "__builtins__": self._build_builtins(),
            "__name__": module_name,
        }
        namespace.update(self.extra_globals)
        exec(code, namespace)  # noqa: S102 - the whole point, confined above
        return namespace
