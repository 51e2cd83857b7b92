"""R002/R003 — distance-dtype discipline and the dense-allocation guard.

R002 keeps every hop-distance array on ``DIST_DTYPE`` (the int32 oracle
contract from ``net/oracle.py``): cache byte budgets, the UNREACHABLE
sentinel and the inherit_* exactness certificates all assume one storage
width.  The rule is name-aware — only *distance-named* arrays
(``dist``/``hop``/``shortest``/... components) are checked, so int64
index arrays stay legal — and only integer dtype literals are flagged,
so float euclidean geometry is exempt.

R003 bans square ``(x, x)``-shaped allocations outside an allowlist of
subset-pairwise methods: no O(n^2) memory anywhere on the distance path
is an invariant, not an accident.  Shapes are compared textually, which
catches ``(n, n)``, ``(idx.size, idx.size)`` and friends while leaving
genuinely rectangular buffers alone.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..errors import Diagnostic
from .astutil import call_keyword, dotted_name, numpy_aliases
from .config import (
    BANNED_DIST_DTYPES,
    DENSE_ALLOWLIST,
    DIST_NAME_RE,
    DTYPE_RULE_PREFIXES,
    SRC_PREFIX,
)
from .engine import Rule, SourceFile

__all__ = ["DistDtypeRule", "DenseAllocationRule"]

#: numpy array constructors and the positional index of their dtype arg
#: (None = keyword-only in practice).
_CREATORS: dict[str, int | None] = {
    "zeros": 1,
    "empty": 1,
    "ones": 1,
    "full": 2,
    "asarray": 1,
    "array": 1,
    "arange": None,
    "fromiter": 1,
    "zeros_like": None,
    "empty_like": None,
    "full_like": None,
    "ones_like": None,
}

_SQUARE_ALLOCATORS = frozenset({"zeros", "empty", "ones", "full"})


def _numpy_call_leaf(call: ast.Call, aliases: set[str]) -> str | None:
    """``zeros`` for ``np.zeros(...)``; None for non-numpy calls."""
    name = dotted_name(call.func)
    if name is None:
        return None
    head, _, tail = name.partition(".")
    if head not in aliases or "." in tail:
        return None
    return tail or None


def _banned_dtype(node: ast.expr | None, aliases: set[str]) -> str | None:
    """The offending dtype spelling when ``node`` is a banned literal."""
    if node is None:
        return None
    name = dotted_name(node)
    if name is None:
        return None
    head, _, tail = name.partition(".")
    if head in aliases and tail in BANNED_DIST_DTYPES:
        return name
    return None


def _target_names(node: ast.AST) -> list[str]:
    """Assignment-target identifiers (tuple targets flattened)."""
    out: list[str] = []
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, ast.Name):
            out.append(cur.id)
        elif isinstance(cur, ast.Attribute):
            out.append(cur.attr)
        elif isinstance(cur, (ast.Tuple, ast.List)):
            stack.extend(cur.elts)
        elif isinstance(cur, ast.Starred):
            stack.append(cur.value)
    return out


def _is_dist_named(names: list[str]) -> bool:
    return any(DIST_NAME_RE.search(n) for n in names)


class DistDtypeRule(Rule):
    """R002: distance/hop arrays must be created/cast with DIST_DTYPE."""

    code = "R002"
    name = "dist-dtype"

    def check_file(self, src: SourceFile) -> Iterator[Diagnostic]:
        if not src.rel.startswith(DTYPE_RULE_PREFIXES):
            return
        assert src.tree is not None
        aliases = numpy_aliases(src.tree)
        if not aliases:
            return

        for node in ast.walk(src.tree):
            # np.int16 anywhere in these modules is the legacy pre-PR 2
            # distance ceiling leaking back in.
            if isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name is not None:
                    head, _, tail = name.partition(".")
                    if head in aliases and tail == "int16":
                        yield Diagnostic(
                            src.rel,
                            node.lineno,
                            self.code,
                            "np.int16 is the retired distance ceiling; "
                            "distances are DIST_DTYPE (int32) since PR 2",
                        )
                continue
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            if isinstance(node, ast.Assign):
                targets: list[ast.AST] = list(node.targets)
            else:
                targets = [node.target]
            names = []
            for t in targets:
                names.extend(_target_names(t))
            if not _is_dist_named(names) or node.value is None:
                continue
            for diag in self._value_findings(src, node.value, aliases, names):
                yield diag

        # Casts not bound to an assignment: `return dists.astype(np.int64)`
        # and friends, flagged when the *receiver* is distance-named.
        for node in ast.walk(src.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and node.args
            ):
                continue
            recv = _target_names(node.func.value)
            if not _is_dist_named(recv):
                continue
            bad = _banned_dtype(node.args[0], aliases)
            if bad is not None:
                yield Diagnostic(
                    src.rel,
                    node.lineno,
                    self.code,
                    f"distance array cast with {bad}; use DIST_DTYPE",
                )

    def _value_findings(
        self,
        src: SourceFile,
        value: ast.expr,
        aliases: set[str],
        names: list[str],
    ) -> Iterator[Diagnostic]:
        label = next((n for n in names if DIST_NAME_RE.search(n)), names[0])
        for node in ast.walk(value):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and node.args
            ):
                bad = _banned_dtype(node.args[0], aliases)
                if bad is not None:
                    yield Diagnostic(
                        src.rel,
                        node.lineno,
                        self.code,
                        f"distance array '{label}' cast with {bad}; use "
                        "DIST_DTYPE",
                    )
                continue
            leaf = _numpy_call_leaf(node, aliases)
            if leaf in _CREATORS:
                dtype = call_keyword(node, "dtype")
                pos = _CREATORS[leaf]
                if dtype is None and pos is not None and len(node.args) > pos:
                    dtype = node.args[pos]
                bad = _banned_dtype(dtype, aliases)
                if bad is not None:
                    yield Diagnostic(
                        src.rel,
                        node.lineno,
                        self.code,
                        f"distance array '{label}' created with dtype "
                        f"{bad}; use DIST_DTYPE",
                    )
            elif leaf in BANNED_DIST_DTYPES:
                # scalar cast: shortest = np.int64(x)
                yield Diagnostic(
                    src.rel,
                    node.lineno,
                    self.code,
                    f"distance value '{label}' cast with np.{leaf}; use "
                    "DIST_DTYPE",
                )


class DenseAllocationRule(Rule):
    """R003: no square allocations outside the allowlisted methods."""

    code = "R003"
    name = "dense-allocation"

    def check_file(self, src: SourceFile) -> Iterator[Diagnostic]:
        if not src.rel.startswith(SRC_PREFIX):
            return
        assert src.tree is not None
        aliases = numpy_aliases(src.tree)
        if not aliases:
            return
        allowed = DENSE_ALLOWLIST.get(src.rel, ())
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            leaf = _numpy_call_leaf(node, aliases)
            if leaf not in _SQUARE_ALLOCATORS or not node.args:
                continue
            shape = node.args[0]
            if not (isinstance(shape, ast.Tuple) and len(shape.elts) == 2):
                continue
            a, b = shape.elts
            if isinstance(a, ast.Constant) and isinstance(b, ast.Constant):
                continue  # (0, 0)-style literal sentinels are not O(n^2)
            if ast.unparse(a) != ast.unparse(b):
                continue
            qual = src.enclosing_qualname(node)
            if any(
                qual == entry or qual.startswith(entry + ".")
                for entry in allowed
            ):
                continue
            yield Diagnostic(
                src.rel,
                node.lineno,
                self.code,
                f"square np.{leaf}(({ast.unparse(a)}, {ast.unparse(b)})) "
                "allocation outside the allowlist; the distance path must "
                "stay O(m + budgets)",
            )
