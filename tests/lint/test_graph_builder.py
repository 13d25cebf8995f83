"""The whole-program graph builder: resolution quality on small trees.

Each test feeds :func:`build_graph_from_sources` a two-or-three file
program and asserts the *resolution keys* the linker produced — the
rules never see source text, only these keys, so this is where
cross-module precision is actually proven.
"""

from repro.lint.graph import ProgramGraph, build_graph, build_graph_from_sources


def calls_of(graph: ProgramGraph, key: str):
    """Callee keys recorded for one function."""
    return [site.callee for site in graph.functions[key].calls]


class TestImportResolution:
    def test_cross_module_function_call(self):
        graph = build_graph_from_sources({
            "src/repro/flow/a.py": (
                "from repro.flow.b import helper\n\n"
                "def run():\n"
                "    return helper()\n"
            ),
            "src/repro/flow/b.py": "def helper():\n    return 1\n",
        })
        assert calls_of(graph, "repro.flow.a:run") == ["repro.flow.b:helper"]

    def test_aliased_import(self):
        graph = build_graph_from_sources({
            "src/repro/flow/a.py": (
                "import repro.flow.b as bee\n\n"
                "def run():\n"
                "    return bee.helper()\n"
            ),
            "src/repro/flow/b.py": "def helper():\n    return 1\n",
        })
        assert calls_of(graph, "repro.flow.a:run") == ["repro.flow.b:helper"]

    def test_reexport_is_chased_to_the_definer(self):
        graph = build_graph_from_sources({
            "src/repro/flow/__init__.py": (
                "from repro.flow.impl import helper\n"
            ),
            "src/repro/flow/impl.py": "def helper():\n    return 1\n",
            "src/repro/serve/user.py": (
                "from repro.flow import helper\n\n"
                "def run():\n"
                "    return helper()\n"
            ),
        })
        assert calls_of(graph, "repro.serve.user:run") == [
            "repro.flow.impl:helper"
        ]

    def test_external_call_keys(self):
        graph = build_graph_from_sources({
            "src/repro/flow/a.py": (
                "import time\n\n"
                "def run():\n"
                "    return time.sleep(1)\n"
            ),
        })
        assert calls_of(graph, "repro.flow.a:run") == ["ext:time.sleep"]

    def test_import_edges_and_graph(self):
        graph = build_graph_from_sources({
            "src/repro/flow/a.py": "import repro.flow.b\n",
            "src/repro/flow/b.py": "X = 1\n",
        })
        assert graph.import_graph()["repro.flow.a"] == {"repro.flow.b"}

    def test_function_level_imports_are_not_module_edges(self):
        graph = build_graph_from_sources({
            "src/repro/flow/a.py": (
                "def run():\n"
                "    import repro.flow.b\n"
                "    return repro.flow.b.X\n"
            ),
            "src/repro/flow/b.py": "X = 1\n",
        })
        assert graph.import_graph().get("repro.flow.a", set()) == set()


class TestLocalResolution:
    def test_forward_reference_to_later_def(self):
        graph = build_graph_from_sources({
            "src/repro/flow/a.py": (
                "def run():\n"
                "    return later()\n\n"
                "def later():\n"
                "    return 1\n"
            ),
        })
        assert calls_of(graph, "repro.flow.a:run") == ["repro.flow.a:later"]

    def test_self_method_call(self):
        graph = build_graph_from_sources({
            "src/repro/flow/a.py": (
                "class Stage:\n"
                "    def run(self):\n"
                "        return self.step()\n\n"
                "    def step(self):\n"
                "        return 1\n"
            ),
        })
        assert calls_of(graph, "repro.flow.a:Stage.run") == [
            "repro.flow.a:Stage.step"
        ]

    def test_constructed_local_variable_type(self):
        graph = build_graph_from_sources({
            "src/repro/flow/a.py": (
                "from repro.flow.b import Engine\n\n"
                "def run():\n"
                "    engine = Engine()\n"
                "    return engine.fire()\n"
            ),
            "src/repro/flow/b.py": (
                "class Engine:\n"
                "    def fire(self):\n"
                "        return 1\n"
            ),
        })
        calls = calls_of(graph, "repro.flow.a:run")
        assert "repro.flow.b:Engine.fire" in calls

    def test_method_on_return_type_chains(self):
        graph = build_graph_from_sources({
            "src/repro/flow/a.py": (
                "class Child:\n"
                "    def inc(self):\n"
                "        return 1\n\n"
                "class Counter:\n"
                "    def labels(self) -> 'Child':\n"
                "        return Child()\n\n"
                "def run(counter: Counter):\n"
                "    return counter.labels().inc()\n"
            ),
        })
        assert "repro.flow.a:Child.inc" in calls_of(graph, "repro.flow.a:run")

    def test_nested_def_key(self):
        graph = build_graph_from_sources({
            "src/repro/flow/a.py": (
                "def outer():\n"
                "    def inner():\n"
                "        return 1\n"
                "    return inner()\n"
            ),
        })
        assert "repro.flow.a:outer.<locals>.inner" in graph.functions
        assert calls_of(graph, "repro.flow.a:outer") == [
            "repro.flow.a:outer.<locals>.inner"
        ]

    def test_unknown_stays_opaque_not_guessed(self):
        graph = build_graph_from_sources({
            "src/repro/flow/a.py": (
                "def run(thing):\n"
                "    return thing.spin()\n"
            ),
        })
        (callee,) = calls_of(graph, "repro.flow.a:run")
        assert callee.startswith("?:")


class TestStructure:
    def test_async_and_lock_markers(self):
        graph = build_graph_from_sources({
            "src/repro/serve/a.py": (
                "import threading\n\n"
                "class Box:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self.n = 0\n\n"
                "    def bump(self):\n"
                "        with self._lock:\n"
                "            self.n += 1\n\n"
                "async def handle():\n"
                "    return 1\n"
            ),
        })
        assert graph.functions["repro.serve.a:handle"].is_async
        klass = graph.classes["repro.serve.a:Box"]
        assert klass.lock_attrs == ["_lock"]
        (mutation,) = graph.functions["repro.serve.a:Box.bump"].mutations
        assert mutation.attr == "n"
        assert mutation.under_lock

    def test_syntax_error_recorded_not_fatal(self):
        graph = build_graph_from_sources({
            "src/repro/flow/bad.py": "def broken(:\n",
            "src/repro/flow/ok.py": "def fine():\n    return 1\n",
        })
        assert "src/repro/flow/bad.py" in graph.syntax_errors
        assert "repro.flow.ok:fine" in graph.functions

    def test_callers_of_inverts_edges(self):
        graph = build_graph_from_sources({
            "src/repro/flow/a.py": (
                "from repro.flow.b import helper\n\n"
                "def run():\n"
                "    return helper()\n"
            ),
            "src/repro/flow/b.py": "def helper():\n    return 1\n",
        })
        ((caller, site),) = graph.callers_of("repro.flow.b:helper")
        assert caller.key == "repro.flow.a:run"
        assert site.line == 4


class TestBuildGraphOnDisk:
    def test_build_graph_uses_relative_display_paths(self, tmp_path):
        package = tmp_path / "src" / "repro" / "flow"
        package.mkdir(parents=True)
        (package / "mod.py").write_text("def f():\n    return 1\n")
        graph = build_graph([tmp_path / "src"], root=tmp_path)
        module = graph.modules["repro.flow.mod"]
        assert module.path == "src/repro/flow/mod.py"
        assert "repro.flow.mod:f" in graph.functions
