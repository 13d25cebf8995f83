"""Fixture pairs for the whole-program rules (DESIGN.md §18).

Every rule gets at least two bad fixtures (finding expected, location
asserted) and two good fixtures (no finding) — the bad ones prove the
rule sees through module boundaries, the good ones prove the escape
hatches (executor hop, lock domination, seeded sources, downward
imports) stay quiet.
"""

from repro.lint.graph import build_graph_from_sources
from repro.lint.graph.rules import (
    Arch001Layering,
    Async001BlockingInCoroutine,
    Det003CrossModuleNondeterminism,
    GraphSettings,
    Lock001UnguardedMutation,
    run_graph_rules,
)

SETTINGS = GraphSettings(
    layers=[["repro.core"], ["repro.flow"], ["repro.serve"]],
    async_packages=("repro.serve",),
    det_packages=("repro.core", "repro.flow", "repro.serve"),
)


def findings_for(rule, sources):
    graph = build_graph_from_sources(sources)
    return rule.check(graph, SETTINGS)


class TestAsync001:
    def test_bad_direct_blocking_call(self):
        findings = findings_for(Async001BlockingInCoroutine(), {
            "src/repro/serve/h.py": (
                "import time\n\n\n"
                "async def handle():\n"
                "    time.sleep(1)\n"
            ),
        })
        (finding,) = findings
        assert finding.rule_id == "ASYNC001"
        assert finding.path == "src/repro/serve/h.py"
        assert finding.line == 5
        assert "time.sleep" in finding.message

    def test_bad_transitive_through_other_module(self):
        findings = findings_for(Async001BlockingInCoroutine(), {
            "src/repro/serve/h.py": (
                "from repro.flow.disk import load\n\n\n"
                "async def handle():\n"
                "    return load()\n"
            ),
            "src/repro/flow/disk.py": (
                "def load():\n"
                "    with open('x') as fh:\n"
                "        return fh.read()\n"
            ),
        })
        (finding,) = findings
        assert finding.path == "src/repro/serve/h.py"
        assert finding.line == 5
        assert "repro.flow.disk.load" in finding.message
        assert "open" in finding.message

    def test_good_executor_hop(self):
        # Only the function *reference* crosses to the executor — no
        # ast.Call edge, so the blocking body is a safe boundary.
        findings = findings_for(Async001BlockingInCoroutine(), {
            "src/repro/serve/h.py": (
                "import asyncio\n\n"
                "from repro.flow.disk import load\n\n\n"
                "async def handle():\n"
                "    return await asyncio.to_thread(load)\n"
            ),
            "src/repro/flow/disk.py": (
                "def load():\n"
                "    with open('x') as fh:\n"
                "        return fh.read()\n"
            ),
        })
        assert findings == []

    def test_good_pure_helper(self):
        findings = findings_for(Async001BlockingInCoroutine(), {
            "src/repro/serve/h.py": (
                "from repro.flow.math import double\n\n\n"
                "async def handle():\n"
                "    return double(2)\n"
            ),
            "src/repro/flow/math.py": (
                "def double(x):\n"
                "    return 2 * x\n"
            ),
        })
        assert findings == []

    def test_good_sync_code_outside_async_packages(self):
        findings = findings_for(Async001BlockingInCoroutine(), {
            "src/repro/flow/batch.py": (
                "import time\n\n\n"
                "def run():\n"
                "    time.sleep(1)\n"
            ),
        })
        assert findings == []


LOCKED_CLASS = (
    "import threading\n\n\n"
    "class Registry:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.count = 0\n\n"
    "    def bump(self):\n"
    "        with self._lock:\n"
    "            self.count += 1\n\n"
)


class TestLock001:
    def test_bad_unlocked_mutation_same_class(self):
        findings = findings_for(Lock001UnguardedMutation(), {
            "src/repro/flow/reg.py": LOCKED_CLASS + (
                "    def reset(self):\n"
                "        self.count = 0\n"
            ),
        })
        (finding,) = findings
        assert finding.rule_id == "LOCK001"
        assert finding.path == "src/repro/flow/reg.py"
        assert finding.line == 14
        assert "Registry.count" in finding.message
        assert "_lock" in finding.message

    def test_bad_helper_reachable_without_lock(self):
        # _clear mutates without the lock and reset() calls it from an
        # unlocked site — not lock-dominated, so the mutation is flagged.
        findings = findings_for(Lock001UnguardedMutation(), {
            "src/repro/flow/reg.py": LOCKED_CLASS + (
                "    def _clear(self):\n"
                "        self.count = 0\n\n"
                "    def reset(self):\n"
                "        self._clear()\n"
            ),
        })
        (finding,) = findings
        assert finding.line == 14
        assert "not every caller holds the lock" in finding.message

    def test_good_lock_dominated_helper(self):
        # Same helper, but every caller holds the lock at the call
        # site — the JsonlExporter._ensure_open shape.
        findings = findings_for(Lock001UnguardedMutation(), {
            "src/repro/flow/reg.py": LOCKED_CLASS + (
                "    def _clear(self):\n"
                "        self.count = 0\n\n"
                "    def reset(self):\n"
                "        with self._lock:\n"
                "            self._clear()\n"
            ),
        })
        assert findings == []

    def test_good_all_mutations_locked(self):
        findings = findings_for(Lock001UnguardedMutation(), {
            "src/repro/flow/reg.py": LOCKED_CLASS + (
                "    def reset(self):\n"
                "        with self._lock:\n"
                "            self.count = 0\n"
            ),
        })
        assert findings == []

    def test_good_init_mutates_freely(self):
        findings = findings_for(Lock001UnguardedMutation(), {
            "src/repro/flow/reg.py": LOCKED_CLASS,
        })
        assert findings == []


class TestDet003:
    def test_bad_cross_module_wall_clock_into_fingerprint(self):
        findings = findings_for(Det003CrossModuleNondeterminism(), {
            "src/repro/flow/stamp.py": (
                "import time\n\n\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "src/repro/core/cache.py": (
                "from repro.flow.stamp import stamp\n\n\n"
                "def fingerprint(value):\n"
                "    return hash(value)\n\n\n"
                "def cache_key():\n"
                "    return fingerprint(stamp())\n"
            ),
        })
        (finding,) = findings
        assert finding.rule_id == "DET003"
        assert finding.path == "src/repro/core/cache.py"
        assert finding.line == 9
        assert "repro.flow.stamp.stamp" in finding.message
        assert "time.time" in finding.message

    def test_bad_flows_through_local_variable(self):
        findings = findings_for(Det003CrossModuleNondeterminism(), {
            "src/repro/flow/stamp.py": (
                "import random\n\n\n"
                "def jitter():\n"
                "    return random.random()\n"
            ),
            "src/repro/core/cache.py": (
                "from repro.flow.stamp import jitter\n\n\n"
                "def digest(value):\n"
                "    return hash(value)\n\n\n"
                "def cache_key():\n"
                "    salt = jitter()\n"
                "    return digest(salt)\n"
            ),
        })
        (finding,) = findings
        assert finding.line == 10
        assert "'salt'" in finding.message
        assert "random.random" in finding.message

    def test_good_seeded_source(self):
        findings = findings_for(Det003CrossModuleNondeterminism(), {
            "src/repro/flow/stamp.py": (
                "import numpy as np\n\n\n"
                "def draw(seed):\n"
                "    return np.random.default_rng(seed).normal()\n"
            ),
            "src/repro/core/cache.py": (
                "from repro.flow.stamp import draw\n\n\n"
                "def fingerprint(value):\n"
                "    return hash(value)\n\n\n"
                "def cache_key(seed):\n"
                "    return fingerprint(draw(seed))\n"
            ),
        })
        assert findings == []

    def test_good_sink_outside_det_packages(self):
        findings = findings_for(Det003CrossModuleNondeterminism(), {
            "src/repro/flow/stamp.py": (
                "import time\n\n\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "src/repro/experiments/notes.py": (
                "from repro.flow.stamp import stamp\n\n\n"
                "def fingerprint(value):\n"
                "    return hash(value)\n\n\n"
                "def run_label():\n"
                "    return fingerprint(stamp())\n"
            ),
        })
        assert findings == []


class TestArch001:
    def test_bad_upward_import(self):
        findings = findings_for(Arch001Layering(), {
            "src/repro/core/engine.py": (
                "import repro.serve.api\n"
            ),
            "src/repro/serve/api.py": "X = 1\n",
        })
        (finding,) = findings
        assert finding.rule_id == "ARCH001"
        assert finding.path == "src/repro/core/engine.py"
        assert finding.line == 1
        assert "layer 0" in finding.message
        assert "layer 2" in finding.message

    def test_bad_import_cycle(self):
        findings = findings_for(Arch001Layering(), {
            "src/repro/flow/a.py": "import repro.flow.b\n",
            "src/repro/flow/b.py": "import repro.flow.a\n",
        })
        (finding,) = findings
        assert "import cycle" in finding.message
        assert "repro.flow.a -> repro.flow.b -> repro.flow.a" in finding.message
        assert finding.path == "src/repro/flow/a.py"

    def test_good_downward_and_same_layer_imports(self):
        findings = findings_for(Arch001Layering(), {
            "src/repro/serve/api.py": (
                "import repro.core.engine\n"
                "import repro.serve.util\n"
            ),
            "src/repro/serve/util.py": "X = 1\n",
            "src/repro/core/engine.py": "Y = 2\n",
        })
        assert findings == []

    def test_good_deferred_import_is_exempt(self):
        # A function-level import is a deliberate cycle-breaker, not a
        # module-level layering edge.
        findings = findings_for(Arch001Layering(), {
            "src/repro/core/engine.py": (
                "def late():\n"
                "    import repro.serve.api\n"
                "    return repro.serve.api.X\n"
            ),
            "src/repro/serve/api.py": "X = 1\n",
        })
        assert findings == []

    def test_good_unlisted_module_is_exempt_from_layers(self):
        findings = findings_for(Arch001Layering(), {
            "src/repro/extras/tool.py": "import repro.serve.api\n",
            "src/repro/serve/api.py": "X = 1\n",
        })
        assert findings == []


class TestSuppression:
    def test_line_noqa_suppresses_graph_finding(self):
        findings = findings_for(Async001BlockingInCoroutine(), {
            "src/repro/serve/h.py": (
                "import time\n\n\n"
                "async def handle():\n"
                "    time.sleep(1)  # repro: noqa[ASYNC001] startup only\n"
            ),
        })
        assert findings == []

    def test_file_noqa_suppresses_graph_finding(self):
        findings = findings_for(Async001BlockingInCoroutine(), {
            "src/repro/serve/h.py": (
                "# repro: noqa-file[ASYNC001] legacy sync handler\n"
                "import time\n\n\n"
                "async def handle():\n"
                "    time.sleep(1)\n"
            ),
        })
        assert findings == []


class TestRunner:
    def test_run_graph_rules_sorts_across_rules(self):
        graph = build_graph_from_sources({
            "src/repro/serve/h.py": (
                "import time\n\n"
                "import repro.core.engine\n\n\n"
                "async def handle():\n"
                "    time.sleep(1)\n"
            ),
            "src/repro/core/engine.py": "import repro.serve.h\n",
        })
        findings = run_graph_rules(graph, SETTINGS)
        assert [f.rule_id for f in findings] == sorted(
            f.rule_id for f in findings
        ) or findings == sorted(findings)
        assert {f.rule_id for f in findings} >= {"ASYNC001", "ARCH001"}
