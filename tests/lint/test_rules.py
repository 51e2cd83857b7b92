"""Fixture tests: every rule fires on a positive, stays quiet on a
negative, and yields to a pragma.

Fixtures are throwaway trees mimicking the repository layout (the rules
gate on ``src/repro/...`` / ``tests/...`` relative paths).
"""

from .conftest import codes


def lines_with(run, code):
    return [d.line for d in run.diagnostics if d.code == code]


class TestParseFailureR000:
    def test_broken_file_reports_r000_only(self, lint_tree):
        run = lint_tree({"src/repro/broken.py": "def oops(:\n"})
        assert codes(run) == ["R000"]
        assert run.diagnostics[0].path == "src/repro/broken.py"

    def test_valid_file_is_silent(self, lint_tree):
        run = lint_tree({"src/repro/fine.py": "x = 1\n"})
        assert codes(run) == []


class TestRngDisciplineR001:
    def test_global_seed_call_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/gen.py": """\
                import numpy as np

                def topology():
                    np.random.seed(0)
                    return np.random.rand(4)
                """
            }
        )
        assert codes(run) == ["R001"]
        assert lines_with(run, "R001") == [4, 5]

    def test_legacy_random_state_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/gen.py": """\
                import numpy as np

                def topology(seed):
                    return np.random.RandomState(seed).rand(4)
                """
            }
        )
        assert codes(run) == ["R001"]

    def test_unseeded_default_rng_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/gen.py": """\
                import numpy as np

                def topology():
                    rng = np.random.default_rng()
                    other = np.random.default_rng(None)
                    return rng, other
                """
            }
        )
        assert lines_with(run, "R001") == [4, 5]

    def test_module_level_generator_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/gen.py": """\
                import numpy as np

                RNG = np.random.default_rng(7)
                """
            }
        )
        assert codes(run) == ["R001"]

    def test_seeded_local_generator_is_clean(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/gen.py": """\
                import numpy as np

                def topology(seed):
                    rng = np.random.default_rng(seed)
                    return rng.random(4)
                """
            }
        )
        assert codes(run) == []

    def test_rule_does_not_apply_outside_src(self, lint_tree):
        run = lint_tree(
            {
                "benchmarks/bench_gen.py": """\
                import numpy as np

                RNG = np.random.default_rng(7)
                """
            }
        )
        assert codes(run) == []

    def test_pragma_suppresses(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/gen.py": (
                    "import numpy as np\n"
                    "RNG = np.random.default_rng(7)"
                    "  # repro-lint: disable=R001\n"
                )
            }
        )
        assert codes(run) == []
        assert run.suppressed == 1


class TestDistDtypeR002:
    def test_int64_distance_creation_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/net/x.py": """\
                import numpy as np

                def f(n):
                    hops = np.zeros(n, dtype=np.int64)
                    return hops
                """
            }
        )
        assert codes(run) == ["R002"]

    def test_astype_on_distance_expression_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/traffic/x.py": """\
                import numpy as np

                def f(oracle, pairs):
                    shortest = oracle.pair_distances(pairs).astype(np.int64)
                    return shortest
                """
            }
        )
        assert codes(run) == ["R002"]

    def test_astype_on_distance_receiver_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/net/x.py": """\
                import numpy as np

                def f(dists):
                    return dists.astype(np.uint16)
                """
            }
        )
        assert codes(run) == ["R002"]

    def test_int16_anywhere_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/maintenance/x.py": """\
                import numpy as np

                CEILING = np.int16
                """
            }
        )
        assert codes(run) == ["R002"]

    def test_index_arrays_stay_legal(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/net/x.py": """\
                import numpy as np

                def f(n):
                    order = np.zeros(n, dtype=np.int64)
                    indptr = np.arange(n + 1, dtype=np.int64)
                    return order, indptr
                """
            }
        )
        assert codes(run) == []

    def test_dist_dtype_and_floats_stay_legal(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/net/x.py": """\
                import numpy as np

                DIST_DTYPE = np.int32

                def f(n):
                    dist = np.zeros(n, dtype=DIST_DTYPE)
                    distances = np.zeros(n, dtype=np.float64)
                    return dist, distances
                """
            }
        )
        assert codes(run) == []

    def test_rule_scoped_to_dtype_prefixes(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/core/x.py": """\
                import numpy as np

                def f(n):
                    hops = np.zeros(n, dtype=np.int64)
                    return hops
                """
            }
        )
        assert codes(run) == []

    def test_pragma_suppresses(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/net/x.py": (
                    "import numpy as np\n"
                    "def f(n):\n"
                    "    hop_dist = np.full(n, 0, dtype=np.int64)"
                    "  # repro-lint: disable=R002\n"
                    "    return hop_dist\n"
                )
            }
        )
        assert codes(run) == []
        assert run.suppressed == 1


class TestDenseAllocationR003:
    def test_square_allocation_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/core/x.py": """\
                import numpy as np

                def f(n):
                    return np.zeros((n, n))
                """
            }
        )
        assert codes(run) == ["R003"]

    def test_textual_square_shapes_fire(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/core/x.py": """\
                import numpy as np

                def f(idx):
                    return np.empty((idx.size, idx.size), dtype=np.float64)
                """
            }
        )
        assert codes(run) == ["R003"]

    def test_rectangular_and_constant_shapes_are_clean(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/core/x.py": """\
                import numpy as np

                def f(n, m):
                    a = np.zeros((n, m))
                    b = np.zeros((0, 0))
                    return a, b
                """
            }
        )
        assert codes(run) == []

    def test_dense_backend_allowlist(self, lint_tree):
        # The allowlisted qualname passes; a sibling in the same module
        # still fires.
        run = lint_tree(
            {
                "src/repro/net/oracle.py": """\
                import numpy as np

                class DistanceOracle:
                    def pairwise_distances(self, n):
                        return np.zeros((n, n))

                def all_pairs(n):
                    return np.zeros((n, n))
                """
            }
        )
        assert codes(run) == ["R003"]

    def test_pragma_suppresses(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/core/x.py": (
                    "import numpy as np\n"
                    "def f(n):\n"
                    "    return np.zeros((n, n))"
                    "  # repro-lint: disable=R003\n"
                )
            }
        )
        assert codes(run) == []
        assert run.suppressed == 1


class TestHotPathLoopsR004:
    def test_per_node_range_loop_fires_in_hot_module(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/traffic/load.py": """\
                def account(n, walks):
                    total = 0
                    for i in range(n):
                        total += i
                    return total
                """
            }
        )
        assert codes(run) == ["R004"]

    def test_edges_iteration_fires_in_hot_module(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/core/clustering.py": """\
                def degree(graph):
                    count = 0
                    for u, v in graph.edges():
                        count += 1
                    return count
                """
            }
        )
        assert codes(run) == ["R004"]

    def test_same_loop_outside_hot_modules_is_clean(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/core/validate.py": """\
                def check(n):
                    for i in range(n):
                        pass
                """
            }
        )
        assert codes(run) == []

    def test_comprehensions_and_bounded_loops_are_clean(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/traffic/load.py": """\
                def account(n, walks):
                    sizes = [len(w) for w in walks]
                    for chunk in range(0, n, 64):
                        pass
                    return sizes
                """
            }
        )
        assert codes(run) == []

    def test_reference_engine_allowlist(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/net/labeling.py": """\
                def _build_pruned_labels_reference(n):
                    for v in range(n):
                        pass
                """
            }
        )
        assert codes(run) == []

    def test_pragma_suppresses(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/net/oracle.py": (
                    "def sweep(n):\n"
                    "    for v in range(n):  # repro-lint: disable=R004\n"
                    "        pass\n"
                )
            }
        )
        assert codes(run) == []
        assert run.suppressed == 1


class TestInheritanceCoverageR005:
    SRC = """\
    class RowCache:
        def inherit_from(self, parent, removed):
            return 0
    """

    def test_uncovered_certificate_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/net/cache.py": self.SRC,
                "tests/net/test_cache.py": """\
                def test_unrelated():
                    assert True
                """,
            }
        )
        assert codes(run) == ["R005"]
        assert "RowCache.inherit_from" in run.diagnostics[0].message

    def test_class_plus_call_in_one_test_module_covers(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/net/cache.py": self.SRC,
                "tests/net/test_cache.py": """\
                from repro.net.cache import RowCache

                def test_carryover():
                    child = RowCache()
                    assert child.inherit_from(RowCache(), 3) == 0
                """,
            }
        )
        assert codes(run) == []

    def test_call_without_class_mention_does_not_cover(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/net/cache.py": self.SRC,
                "tests/net/test_cache.py": """\
                def test_duck_typed(thing):
                    thing.inherit_from(None, 3)
                """,
            }
        )
        assert codes(run) == ["R005"]

    def test_with_delta_methods_are_in_scope(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/traffic/m.py": """\
                class LoadReport:
                    def with_edge_delta(self, delta):
                        return self
                """,
                "tests/test_m.py": "def test_x():\n    assert True\n",
            }
        )
        assert codes(run) == ["R005"]

    def test_pragma_on_def_line_suppresses(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/net/cache.py": (
                    "class RowCache:\n"
                    "    def inherit_from(self, parent):"
                    "  # repro-lint: disable=R005\n"
                    "        return 0\n"
                ),
                "tests/test_x.py": "def test_x():\n    assert True\n",
            }
        )
        assert codes(run) == []
        assert run.suppressed == 1


class TestAllConsistencyR006:
    def test_phantom_export_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/pkg.py": """\
                __all__ = ["exists", "phantom"]

                exists = 1
                """
            }
        )
        assert codes(run) == ["R006"]
        assert "phantom" in run.diagnostics[0].message

    def test_duplicate_export_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/pkg.py": """\
                __all__ = ["twice", "twice"]

                twice = 1
                """
            }
        )
        assert codes(run) == ["R006"]
        assert "duplicate" in run.diagnostics[0].message

    def test_conditional_and_try_bindings_count(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/pkg.py": """\
                __all__ = ["maybe", "fallback", "Cls", "func"]

                if True:
                    maybe = 1
                try:
                    import json as fallback
                except ImportError:
                    fallback = None

                class Cls:
                    pass

                def func():
                    pass
                """
            }
        )
        assert codes(run) == []

    def test_pragma_suppresses(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/pkg.py": (
                    '__all__ = ["phantom"]  # repro-lint: disable=R006\n'
                )
            }
        )
        assert codes(run) == []
        assert run.suppressed == 1


class TestSeededTestsR007:
    def test_global_seed_in_tests_fires(self, lint_tree):
        run = lint_tree(
            {
                "tests/test_x.py": """\
                import numpy as np

                def test_x():
                    np.random.seed(0)
                """
            }
        )
        assert codes(run) == ["R007"]

    def test_stdlib_random_calls_fire(self, lint_tree):
        run = lint_tree(
            {
                "benchmarks/bench_x.py": """\
                import random

                def sample():
                    return random.randint(0, 10)
                """
            }
        )
        assert codes(run) == ["R007"]
        assert "random.randint" in run.diagnostics[0].message

    def test_module_level_seeded_generator_allowed_in_tests(self, lint_tree):
        # Unlike R001, tests may build seeded module-level generators
        # (fixture parametrization); only unseeded/global state is banned.
        run = lint_tree(
            {
                "tests/test_x.py": """\
                import numpy as np

                RNG = np.random.default_rng(1234)

                def test_x():
                    assert RNG.random() < 1.0
                """
            }
        )
        assert codes(run) == []

    def test_pragma_suppresses(self, lint_tree):
        run = lint_tree(
            {
                "tests/test_x.py": (
                    "import numpy as np\n"
                    "def test_x():\n"
                    "    np.random.seed(0)  # repro-lint: disable=R007\n"
                )
            }
        )
        assert codes(run) == []
        assert run.suppressed == 1


class TestLazyImportsR008:
    def test_top_level_scipy_import_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/analysis/x.py": """\
                import scipy.sparse
                """
            }
        )
        assert codes(run) == ["R008"]

    def test_top_level_from_import_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/figures/x.py": """\
                from matplotlib import pyplot as plt
                """
            }
        )
        assert codes(run) == ["R008"]

    def test_function_local_import_is_clean(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/analysis/x.py": """\
                def spectrum(m):
                    from scipy.sparse.linalg import eigsh
                    return eigsh(m)
                """
            }
        )
        assert codes(run) == []

    def test_type_checking_guard_is_clean(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/analysis/x.py": """\
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    import scipy.sparse
                """
            }
        )
        assert codes(run) == []

    def test_rule_does_not_apply_to_tests(self, lint_tree):
        run = lint_tree({"tests/test_x.py": "import scipy\n"})
        assert codes(run) == []

    def test_pragma_suppresses(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/analysis/x.py": (
                    "import scipy  # repro-lint: disable=R008\n"
                )
            }
        )
        assert codes(run) == []
        assert run.suppressed == 1


class TestDurableFormatsR011:
    def test_top_level_pickle_import_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/service/x.py": """\
                import pickle
                """
            }
        )
        assert codes(run) == ["R011"]

    def test_from_import_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/service/x.py": """\
                from shelve import open as dbopen
                """
            }
        )
        assert codes(run) == ["R011"]

    def test_function_local_import_also_fires(self, lint_tree):
        # Unlike R008 there is no lazy-import escape: a pickle written
        # from inside a function is just as opaque on disk.
        run = lint_tree(
            {
                "src/repro/service/x.py": """\
                def save(state, path):
                    import marshal
                    path.write_bytes(marshal.dumps(state))
                """
            }
        )
        assert codes(run) == ["R011"]

    def test_rule_does_not_apply_outside_src(self, lint_tree):
        run = lint_tree(
            {
                "tests/test_x.py": "import pickle\n",
                "benchmarks/test_bench_x.py": "import pickle\n",
            }
        )
        assert codes(run) == []

    def test_pragma_suppresses(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/service/x.py": (
                    "import pickle  # repro-lint: disable=R011\n"
                )
            }
        )
        assert codes(run) == []
        assert run.suppressed == 1


class TestSilentExceptionR009:
    def test_bare_except_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/x.py": """\
                def load(path):
                    try:
                        return open(path).read()
                    except:
                        return None
                """
            }
        )
        assert codes(run) == ["R009"]
        assert lines_with(run, "R009") == [4]

    def test_bare_except_fires_even_with_real_body(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/x.py": """\
                def load(path):
                    try:
                        return open(path).read()
                    except:
                        raise ValueError(path)
                """
            }
        )
        assert codes(run) == ["R009"]

    def test_pass_only_broad_handler_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/x.py": """\
                def maybe(fn):
                    try:
                        fn()
                    except Exception:
                        pass
                """
            }
        )
        assert codes(run) == ["R009"]

    def test_ellipsis_body_base_exception_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/x.py": """\
                def maybe(fn):
                    try:
                        fn()
                    except BaseException:
                        ...
                """
            }
        )
        assert codes(run) == ["R009"]

    def test_broad_handler_that_acts_is_clean(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/x.py": """\
                def maybe(fn, log):
                    try:
                        fn()
                    except Exception as exc:
                        log.append(exc)
                        raise
                """
            }
        )
        assert codes(run) == []

    def test_typed_pass_handler_is_clean(self, lint_tree):
        # Narrow types may legitimately be ignored (e.g. a cache miss).
        run = lint_tree(
            {
                "src/repro/x.py": """\
                def maybe(fn):
                    try:
                        fn()
                    except KeyError:
                        pass
                """
            }
        )
        assert codes(run) == []

    def test_rule_does_not_apply_to_tests(self, lint_tree):
        run = lint_tree(
            {
                "tests/test_x.py": """\
                def test_it(fn):
                    try:
                        fn()
                    except:
                        pass
                """
            }
        )
        assert codes(run) == []

    def test_pragma_suppresses(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/x.py": """\
                def maybe(fn):
                    try:
                        fn()
                    except Exception:  # repro-lint: disable=R009
                        pass
                """
            }
        )
        assert codes(run) == []
        assert run.suppressed == 1


class TestTimingDisciplineR010:
    def test_dotted_clock_call_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/engine.py": """\
                import time

                def build():
                    t0 = time.perf_counter()
                    return time.time() - t0
                """
            }
        )
        assert codes(run) == ["R010"]
        assert lines_with(run, "R010") == [4, 5]

    def test_aliased_module_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/engine.py": """\
                import time as clock

                def build():
                    return clock.monotonic()
                """
            }
        )
        assert codes(run) == ["R010"]

    def test_from_import_fires(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/engine.py": """\
                from time import perf_counter

                def build():
                    return perf_counter()
                """
            }
        )
        assert codes(run) == ["R010"]
        assert lines_with(run, "R010") == [1]

    def test_formatting_helpers_are_clean(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/engine.py": """\
                import time

                def stamp():
                    return time.strftime("%Y", time.gmtime())
                """
            }
        )
        assert codes(run) == []

    def test_obs_layer_is_exempt(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/obs/trace.py": """\
                import time

                def now():
                    return time.perf_counter()
                """
            }
        )
        assert codes(run) == []

    def test_benchmarks_and_tests_are_out_of_scope(self, lint_tree):
        run = lint_tree(
            {
                "benchmarks/test_bench.py": """\
                import time

                def timer():
                    return time.process_time()
                """,
                "tests/test_x.py": """\
                import time

                def test_speed():
                    assert time.perf_counter() > 0
                """,
            }
        )
        assert codes(run) == []

    def test_allowlist_exempts_module(self, lint_tree, monkeypatch):
        from repro.lint import rules_timing

        monkeypatch.setattr(
            rules_timing,
            "TIMING_ALLOWLIST",
            ("src/repro/legacy.py",),
        )
        run = lint_tree(
            {
                "src/repro/legacy.py": """\
                import time

                def build():
                    return time.time()
                """
            }
        )
        assert codes(run) == []

    def test_pragma_suppresses(self, lint_tree):
        run = lint_tree(
            {
                "src/repro/engine.py": (
                    "import time\n"
                    "T0 = time.time()"
                    "  # repro-lint: disable=R010\n"
                )
            }
        )
        assert codes(run) == []
        assert run.suppressed == 1
