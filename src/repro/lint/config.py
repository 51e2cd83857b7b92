"""Project tables consumed by the repro-lint rules.

Everything path-shaped is a POSIX path relative to the repository root
(``src/repro/...``), matching :attr:`SourceFile.rel`.  Keeping the
allowlists here — instead of scattering pragmas — makes the set of
sanctioned exceptions reviewable in one place; pragmas are reserved for
single-site, comment-documented cases.
"""

from __future__ import annotations

import re

__all__ = [
    "RULE_DOCS",
    "SRC_PREFIX",
    "TEST_PREFIX",
    "BENCH_PREFIX",
    "DTYPE_RULE_PREFIXES",
    "DIST_NAME_RE",
    "DIST_DTYPE_NAME",
    "BANNED_DIST_DTYPES",
    "DENSE_ALLOWLIST",
    "HOT_MODULES",
    "HOT_ALLOWLIST",
    "LAZY_IMPORT_MODULES",
    "DURABLE_FORMAT_MODULES",
    "COVERAGE_METHOD_RE",
    "TIMING_ALLOWLIST",
]

#: Rule code -> (title, what it protects).  The single source of truth
#: for ``repro-khop lint --list-rules`` and the README table.
RULE_DOCS: dict[str, tuple[str, str]] = {
    "R000": (
        "parse-failure",
        "every linted file must be valid Python (a broken file silently "
        "escapes all other rules)",
    ),
    "R001": (
        "rng-discipline",
        "all engine randomness flows through an explicit, seeded, "
        "caller-supplied np.random.Generator — no global state, no "
        "legacy RandomState, no unseeded or module-level construction",
    ),
    "R002": (
        "dist-dtype",
        "distance/hop arrays in net/, traffic/ and maintenance/ are "
        "created and cast with DIST_DTYPE, so the int32 oracle contract "
        "(sentinel, memory budgets, cache byte accounting) cannot drift "
        "per-module",
    ),
    "R003": (
        "dense-allocation",
        "no O(n^2) square allocations sneak in outside the allowlisted "
        "subset-pairwise methods — the distance layer's O(m + budgets) "
        "memory depends on it",
    ),
    "R004": (
        "hot-path-loops",
        "modules declared hot stay vectorized: no per-node/per-edge "
        "Python for-loops outside the allowlisted scalar reference "
        "engines",
    ),
    "R005": (
        "inheritance-coverage",
        "every public inherit_*/with_*delta cache-carryover method has "
        "at least one test exercising it — an untested exactness "
        "certificate is a silent-wrong-answer factory",
    ),
    "R006": (
        "all-consistency",
        "__all__ names exist and package __init__ re-exports resolve, "
        "so `from repro.x import *` and the documented API stay truthful",
    ),
    "R007": (
        "seeded-tests",
        "tests and benchmarks draw randomness only from seeded "
        "generators — reproducibility of the regression matrix depends "
        "on it",
    ),
    "R008": (
        "lazy-imports",
        "scipy/matplotlib never import at module top level inside "
        "src/repro, keeping `import repro` lightweight (PR 3 contract)",
    ),
    "R009": (
        "silent-exception",
        "no silently swallowed exceptions in src/repro: bare `except:` "
        "is always a bug, and a pass-only `except Exception` body hides "
        "real failures — fault handling must be typed and observable "
        "(PartitionError, RepairError, ...)",
    ),
    "R010": (
        "timing-discipline",
        "no raw clock reads (time.time/perf_counter/...) in src/repro "
        "outside the obs layer — stage timing flows through repro.obs "
        "spans so every measurement lands in one trace with one "
        "attribution model (benchmarks/tests exempt)",
    ),
    "R011": (
        "durable-formats",
        "pickle/marshal/shelve never import in src/repro, at any level "
        "— durable state (checkpoints, event logs) is versioned JSON, "
        "so every artifact stays inspectable, diffable and loadable "
        "across code versions (PR 9 contract)",
    ),
}

SRC_PREFIX = "src/repro/"
TEST_PREFIX = "tests/"
BENCH_PREFIX = "benchmarks/"

#: R002 applies to the modules that share the oracle's distance arrays.
DTYPE_RULE_PREFIXES: tuple[str, ...] = (
    "src/repro/net/",
    "src/repro/traffic/",
    "src/repro/maintenance/",
)

#: Names that denote hop-distance-valued arrays.  Integer-typed creations
#: or casts of these must use DIST_DTYPE; float arrays (euclidean
#: geometry) are exempt by construction.
DIST_NAME_RE = re.compile(
    r"(^|_)(dist|dists|distance|distances|hop|hops|depth|depths|"
    r"shortest|ecc)(_|$)"
)

DIST_DTYPE_NAME = "DIST_DTYPE"

#: Integer numpy dtype literals banned on distance-named arrays
#: (int32 included: spell it DIST_DTYPE so a future width change is a
#: one-line edit).
BANNED_DIST_DTYPES = frozenset(
    {
        "int8",
        "int16",
        "int32",
        "int64",
        "uint8",
        "uint16",
        "uint32",
        "uint64",
        "intp",
        "short",
        "longlong",
    }
)

#: R003: (module rel-path) -> qualname prefixes allowed to allocate
#: square matrices.  ``pairwise_distances`` returns an all-pairs matrix
#: over an explicit node subset, which is exactly what its callers asked
#: for.
DENSE_ALLOWLIST: dict[str, tuple[str, ...]] = {
    "src/repro/net/oracle.py": (
        "DistanceOracle.pairwise_distances",
    ),
    "src/repro/net/labeling.py": (
        "LandmarkDistanceOracle.pairwise_distances",
    ),
}

#: R004: modules whose hot paths were vectorized in PRs 2-5; a per-node
#: Python loop reappearing here is a performance regression.  Values are
#: the reason shown in the diagnostic.
HOT_MODULES: dict[str, str] = {
    "src/repro/net/graph.py": "array Graph: numpy constructor and splices",
    "src/repro/net/topology.py": "cell-binned edges, array rejection sampling",
    "src/repro/net/oracle.py": "bit-packed BFS kernel / lazy oracle (PR 2/4)",
    "src/repro/net/labeling.py": "batched PLL construction, vectorized label joins",
    "src/repro/core/clustering.py": "batched k-hop clustering engine (PR 4)",
    "src/repro/traffic/router.py": "batch flow routing (PR 3)",
    "src/repro/traffic/load.py": "vectorized load accounting (PR 3)",
    "src/repro/service/guards.py": "array invariant guards, run after every service event",
}

#: R004: qualname prefixes inside hot modules that *are* the scalar
#: reference engines the equivalence tests compare against.
HOT_ALLOWLIST: dict[str, tuple[str, ...]] = {
    "src/repro/net/labeling.py": ("_build_pruned_labels_reference",),
}

#: R008: top-level imports of these packages are banned in src/repro.
LAZY_IMPORT_MODULES = frozenset({"scipy", "matplotlib"})

#: R011: serialization modules banned in src/repro at *any* import level
#: (unlike R008 there is no function-local escape — a lazily imported
#: pickle is just as opaque on disk as an eager one).
DURABLE_FORMAT_MODULES = frozenset({"pickle", "cPickle", "marshal", "shelve"})

#: R005: public cache-carryover method names that must be test-covered.
COVERAGE_METHOD_RE = re.compile(r"^(inherit_\w+|with_\w*delta)$")

#: R010: src/repro modules (beyond ``src/repro/obs/``) with a standing,
#: reviewed reason to read clocks directly.  Empty on purpose: new
#: entries need the same review a pragma would get, in one greppable
#: place.
TIMING_ALLOWLIST: tuple[str, ...] = ()
