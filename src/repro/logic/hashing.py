"""Cached structural hashes for the frozen AST dataclasses of both logics."""

from __future__ import annotations

from typing import TypeVar

__all__ = ["cached_hash"]

_T = TypeVar("_T", bound=type)


def cached_hash(cls: _T) -> _T:
    """Memoise the dataclass-generated ``__hash__`` on the instance.

    The evaluators and the satisfiability engine key their memo tables
    on formula objects, so every lookup re-hashes the whole subtree of
    the formula -- including any :class:`~repro.model.tree.JSONTree`
    inside an ``EqDoc`` -- which turns O(1) dictionary hits into
    O(|phi|) work.  Formulas are frozen, so the hash is computed once
    and stored on the instance.
    """
    generated = cls.__hash__

    def __hash__(self) -> int:
        value = self.__dict__.get("_hash")
        if value is None:
            value = generated(self)
            object.__setattr__(self, "_hash", value)
        return value

    cls.__hash__ = __hash__
    return cls
