"""String-keyed registry of index families.

Every index family registers itself once::

    @register_index("qbs")
    class QbSIndex(PathIndex):
        ...

after which the rest of the system — the harness, the CLI, the
benchmarks, the conformance tests, the persistence loader — reaches
it only through :func:`build_index` / :func:`get_index_class`. Adding
a backend is one registration, not an edit per call-site.
"""

from __future__ import annotations

from typing import Dict, List, Type

from ..errors import IndexBuildError, ReproError
from .base import PathIndex

__all__ = ["register_index", "build_index", "available_methods",
           "get_index_class"]

_REGISTRY: Dict[str, Type[PathIndex]] = {}


def register_index(name: str, *, aliases: tuple = ()):
    """Class decorator registering a :class:`PathIndex` subclass.

    ``name`` becomes the canonical ``method`` key (also recorded in
    saved index files); ``aliases`` are extra lookup keys.
    """
    if not name:
        raise IndexBuildError("index method name must be non-empty")

    def decorator(cls: Type[PathIndex]) -> Type[PathIndex]:
        if not (isinstance(cls, type) and issubclass(cls, PathIndex)):
            raise IndexBuildError(
                f"@register_index({name!r}) needs a PathIndex subclass, "
                f"got {cls!r}"
            )
        keys = (name, *aliases)
        for key in keys:
            existing = _REGISTRY.get(key)
            if existing is not None and existing is not cls:
                raise IndexBuildError(
                    f"index method {key!r} is already registered to "
                    f"{existing.__name__}"
                )
        cls.method = name
        for key in keys:
            _REGISTRY[key] = cls
        return cls

    return decorator


def available_methods() -> List[str]:
    """Canonical method names of all registered families, sorted."""
    return sorted({cls.method for cls in _REGISTRY.values()})


def get_index_class(method: str) -> Type[PathIndex]:
    """Resolve a method name (or alias) to its index class."""
    try:
        return _REGISTRY[method]
    except KeyError:
        raise ReproError(
            f"unknown index method {method!r}; "
            f"available: {available_methods()}"
        ) from None


def build_index(graph, method: str = "qbs", **params) -> PathIndex:
    """Build an index of the requested family over ``graph``.

    The single construction entry point: ``graph`` is a
    :class:`~repro.graph.csr.Graph` for undirected families or a
    :class:`~repro.directed.digraph.DiGraph` for directed ones
    (checked up front so the error names the mismatch rather than
    failing deep inside a BFS); ``params`` pass through to the
    family's ``build``.
    """
    from ..directed.digraph import DiGraph
    from ..graph.csr import Graph

    cls = get_index_class(method)
    expected = DiGraph if cls.directed else Graph
    if not isinstance(graph, expected):
        raise IndexBuildError(
            f"method {cls.method!r} needs a {expected.__name__}, "
            f"got {type(graph).__name__}"
        )
    return cls.build(graph, **params)
