#!/usr/bin/env python3
"""Unit tests for the tools/lint.py rule-registry engine.

Each rule gets a positive case (finding fired), a negative case (clean
code passes), and a suppression case (`// lint:allow(rule-id)` silences
it). Runs against throwaway temp trees so the real repo never leaks in.

    python3 tools/test_lint.py
"""

from __future__ import annotations

import tempfile
import unittest
from pathlib import Path

import lint


def run_lint(files: dict[str, str],
             hot_manifest: set[str] | None = None) -> list[str]:
    """Writes `files` (relpath -> contents) into a temp tree, lints every
    .cpp/.hpp, and returns the findings."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, contents in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(contents, encoding="utf-8")
        linter = lint.Linter(root=root, hot_manifest=hot_manifest or set())
        for rel in sorted(files):
            if Path(rel).suffix in lint.CPP_SUFFIXES:
                linter.lint_file(root / rel)
        linter.finish()
        return linter.findings


def rules_fired(findings: list[str]) -> set[str]:
    return {f.split("[", 1)[1].split("]", 1)[0] for f in findings}


class RegistryTest(unittest.TestCase):
    def test_every_rule_has_id_and_doc(self):
        ids = [r.id for r in lint.RULES]
        self.assertEqual(len(ids), len(set(ids)), "duplicate rule ids")
        for rule in lint.RULES:
            self.assertTrue(rule.id, f"{type(rule).__name__} missing id")
            self.assertTrue(rule.doc, f"{rule.id} missing doc")

    def test_expected_rules_registered(self):
        self.assertEqual(
            {r.id for r in lint.RULES},
            {"pragma-once", "endl", "raw-mutex", "rng-owner", "naked-new",
             "unbounded-recv", "include-path", "guarded-include",
             "hot-path-alloc", "hot-path-vector", "env-prefix",
             "env-documented", "module-deps", "src-reachable",
             "alloc-guard-include"})


class PragmaOnceTest(unittest.TestCase):
    def test_missing(self):
        f = run_lint({"src/a.hpp": "int f();\n"})
        self.assertIn("pragma-once", rules_fired(f))

    def test_present(self):
        f = run_lint({"src/a.hpp": "// header\n#pragma once\nint f();\n"})
        self.assertNotIn("pragma-once", rules_fired(f))

    def test_cpp_exempt(self):
        f = run_lint({"src/a.cpp": "int f() { return 0; }\n"})
        self.assertNotIn("pragma-once", rules_fired(f))


class EndlTest(unittest.TestCase):
    def test_fires(self):
        f = run_lint({"src/a.cpp": 'void f() { std::cout << std::endl; }\n'})
        self.assertIn("endl", rules_fired(f))

    def test_clean(self):
        f = run_lint({"src/a.cpp": 'void f() { std::cout << "\\n"; }\n'})
        self.assertNotIn("endl", rules_fired(f))

    def test_comment_ignored(self):
        f = run_lint({"src/a.cpp": "// prefer '\\n' over std::endl\n"})
        self.assertNotIn("endl", rules_fired(f))

    def test_suppressed(self):
        f = run_lint({"src/a.cpp":
                      "void f() { std::cout << std::endl; }"
                      "  // lint:allow(endl)\n"})
        self.assertNotIn("endl", rules_fired(f))


class RawMutexTest(unittest.TestCase):
    def test_fires(self):
        f = run_lint({"src/a.cpp": "std::mutex m;\n"})
        self.assertIn("raw-mutex", rules_fired(f))

    def test_sync_hpp_exempt(self):
        f = run_lint({"src/common/sync.hpp":
                      "#pragma once\nstd::mutex m;\n"})
        self.assertNotIn("raw-mutex", rules_fired(f))

    def test_wrapper_clean(self):
        f = run_lint({"src/a.cpp": "exaclim::Mutex m;\nMutexLock l(m);\n"})
        self.assertNotIn("raw-mutex", rules_fired(f))

    def test_suppressed(self):
        f = run_lint({"src/a.cpp":
                      "std::mutex m;  // lint:allow(raw-mutex)\n"})
        self.assertNotIn("raw-mutex", rules_fired(f))


class RngOwnerTest(unittest.TestCase):
    def test_engine_fires(self):
        for engine in ("std::mt19937", "std::mt19937_64"):
            f = run_lint({"src/data/a.cpp": f"{engine} gen(7);\n"})
            self.assertIn("rng-owner", rules_fired(f), engine)

    def test_distribution_fires(self):
        f = run_lint({"src/nn/a.cpp":
                      "float v = std::normal_distribution<float>(0, 1)"
                      "(rng.engine());\n"})
        self.assertIn("rng-owner", rules_fired(f))

    def test_rng_hpp_exempt(self):
        f = run_lint({"src/common/rng.hpp":
                      "#pragma once\n"
                      "std::uniform_int_distribution<int> d(0, 3);\n"})
        self.assertNotIn("rng-owner", rules_fired(f))

    def test_tests_exempt(self):
        f = run_lint({"tests/a.cpp": "std::mt19937_64 oracle(5489);\n"})
        self.assertNotIn("rng-owner", rules_fired(f))

    def test_rng_and_comment_clean(self):
        f = run_lint({"src/data/a.cpp":
                      "Rng rng(7);  // not a std::mt19937_64\n"
                      "float v = rng.Normal();\n"})
        self.assertNotIn("rng-owner", rules_fired(f))

    def test_suppressed(self):
        f = run_lint({"src/data/a.cpp":
                      "std::mt19937 gen(7);  // lint:allow(rng-owner)\n"})
        self.assertNotIn("rng-owner", rules_fired(f))


class NakedNewTest(unittest.TestCase):
    def test_fires(self):
        f = run_lint({"src/a.cpp": "int* p = new int(3);\n"})
        self.assertIn("naked-new", rules_fired(f))

    def test_delete_fires(self):
        f = run_lint({"src/a.cpp": "void f(int* p) { delete p; }\n"})
        self.assertIn("naked-new", rules_fired(f))

    def test_make_unique_clean(self):
        f = run_lint({"src/a.cpp": "auto p = std::make_unique<int>(3);\n"})
        self.assertNotIn("naked-new", rules_fired(f))

    def test_string_ignored(self):
        f = run_lint({"src/a.cpp": 'const char* s = "a new Thing";\n'})
        self.assertNotIn("naked-new", rules_fired(f))

    def test_bare_allow_suppresses(self):
        f = run_lint({"src/a.cpp": "int* p = new int(3);  // lint:allow\n"})
        self.assertNotIn("naked-new", rules_fired(f))

    def test_per_rule_allow_suppresses(self):
        f = run_lint({"src/a.cpp":
                      "int* p = new int(3);  // lint:allow(naked-new)\n"})
        self.assertNotIn("naked-new", rules_fired(f))

    def test_other_rule_allow_does_not_suppress(self):
        f = run_lint({"src/a.cpp":
                      "int* p = new int(3);  // lint:allow(endl)\n"})
        self.assertIn("naked-new", rules_fired(f))


class UnboundedRecvTest(unittest.TestCase):
    def test_fires_in_src(self):
        f = run_lint({"src/train/a.cpp": "comm.Recv(0, 1);\n"})
        self.assertIn("unbounded-recv", rules_fired(f))

    def test_world_substrate_exempt(self):
        f = run_lint({"src/comm/world.cpp": "comm.Recv(0, 1);\n"})
        self.assertNotIn("unbounded-recv", rules_fired(f))

    def test_rest_of_comm_fires(self):
        # The exemption covers only the substrate (world.*): the elastic
        # exchange path through collectives/elastic must stay bounded.
        f = run_lint({"src/comm/collectives.cpp": "comm.Recv(0, 1);\n"})
        self.assertIn("unbounded-recv", rules_fired(f))

    def test_tests_exempt(self):
        f = run_lint({"tests/a.cpp": "comm.Recv(0, 1);\n"})
        self.assertNotIn("unbounded-recv", rules_fired(f))

    def test_timeout_variant_clean(self):
        f = run_lint({"src/train/a.cpp": "comm.RecvTimeout(0, 1, 2.0);\n"})
        self.assertNotIn("unbounded-recv", rules_fired(f))

    def test_blocking_ok_marker(self):
        f = run_lint({"src/train/a.cpp":
                      "comm.Recv(0, 1);  // fault: blocking-ok\n"})
        self.assertNotIn("unbounded-recv", rules_fired(f))


class IncludePathTest(unittest.TestCase):
    def test_unresolvable_fires(self):
        f = run_lint({"src/a.cpp": '#include "nope/missing.hpp"\n'})
        self.assertIn("include-path", rules_fired(f))

    def test_resolvable_clean(self):
        f = run_lint({
            "src/common/x.hpp": "#pragma once\n",
            "src/a.cpp": '#include "common/x.hpp"\n',
        })
        self.assertNotIn("include-path", rules_fired(f))

    def test_dotdot_fires(self):
        f = run_lint({
            "src/common/x.hpp": "#pragma once\n",
            "src/nn/a.cpp": '#include "../common/x.hpp"\n',
        })
        self.assertIn("include-path", rules_fired(f))

    def test_system_header_clean(self):
        f = run_lint({"src/a.cpp": "#include <vector>\n"})
        self.assertNotIn("include-path", rules_fired(f))


class GuardedIncludeTest(unittest.TestCase):
    def test_missing_include_fires(self):
        f = run_lint({"src/a.hpp":
                      "#pragma once\nint x_ EXACLIM_GUARDED_BY(mutex_);\n"})
        self.assertIn("guarded-include", rules_fired(f))

    def test_sync_include_clean(self):
        f = run_lint({"src/a.hpp":
                      "#pragma once\n"
                      '#include "common/sync.hpp"\n'
                      "int x_ EXACLIM_GUARDED_BY(mutex_);\n"})
        self.assertNotIn("guarded-include", rules_fired(f))


class HotPathAllocTest(unittest.TestCase):
    def test_alloc_in_region_fires(self):
        f = run_lint({"src/a.cpp":
                      "void f(std::vector<int>& v) {\n"
                      "  // hot-path: begin\n"
                      "  v.push_back(1);\n"
                      "  // hot-path: end\n"
                      "}\n"})
        self.assertIn("hot-path-alloc", rules_fired(f))

    def test_alloc_outside_region_clean(self):
        f = run_lint({"src/a.cpp":
                      "void f(std::vector<int>& v) {\n"
                      "  v.push_back(1);\n"
                      "  // hot-path: begin\n"
                      "  v[0] = 2;\n"
                      "  // hot-path: end\n"
                      "}\n"})
        self.assertNotIn("hot-path-alloc", rules_fired(f))

    def test_all_banned_tokens_fire(self):
        for snippet in ("int* p = new int(3);",
                        "auto p = std::make_unique<int>(3);",
                        "v.resize(8);",
                        "v.push_back(1);"):
            f = run_lint({"src/a.cpp":
                          f"// hot-path: begin\n{snippet}\n"
                          "// hot-path: end\n"})
            self.assertIn("hot-path-alloc", rules_fired(f), snippet)

    def test_manifest_file_whole_file(self):
        f = run_lint({"src/kernel.cpp": "void f(V& v) { v.resize(8); }\n"},
                     hot_manifest={"src/kernel.cpp"})
        self.assertIn("hot-path-alloc", rules_fired(f))

    def test_manifest_clean_file_passes(self):
        f = run_lint({"src/kernel.cpp": "void f(int* v) { v[0] = 1; }\n"},
                     hot_manifest={"src/kernel.cpp"})
        self.assertNotIn("hot-path-alloc", rules_fired(f))

    def test_unbalanced_begin_fires(self):
        f = run_lint({"src/a.cpp": "// hot-path: begin\nint x;\n"})
        self.assertIn("hot-path-alloc", rules_fired(f))

    def test_unbalanced_end_fires(self):
        f = run_lint({"src/a.cpp": "int x;\n// hot-path: end\n"})
        self.assertIn("hot-path-alloc", rules_fired(f))

    def test_suppressed(self):
        f = run_lint({"src/a.cpp":
                      "// hot-path: begin\n"
                      "v.resize(8);  // lint:allow(hot-path-alloc)\n"
                      "// hot-path: end\n"})
        self.assertNotIn("hot-path-alloc", rules_fired(f))


class HotPathVectorTest(unittest.TestCase):
    def test_manifest_file_fires(self):
        f = run_lint({"src/kernel.cpp":
                      "void f() { std::vector<float> tmp(8); }\n"},
                     hot_manifest={"src/kernel.cpp"})
        self.assertIn("hot-path-vector", rules_fired(f))

    def test_non_manifest_file_clean(self):
        f = run_lint({"src/a.cpp":
                      "void f() { std::vector<float> tmp(8); }\n"})
        self.assertNotIn("hot-path-vector", rules_fired(f))

    def test_other_element_type_clean(self):
        f = run_lint({"src/kernel.cpp":
                      "void f() { std::vector<int> tmp(8); }\n"},
                     hot_manifest={"src/kernel.cpp"})
        self.assertNotIn("hot-path-vector", rules_fired(f))

    def test_comment_ignored(self):
        f = run_lint({"src/kernel.cpp":
                      "// the old std::vector<float> member\nint x;\n"},
                     hot_manifest={"src/kernel.cpp"})
        self.assertNotIn("hot-path-vector", rules_fired(f))

    def test_suppressed(self):
        f = run_lint({"src/kernel.cpp":
                      "std::vector<float> tmp(8);"
                      "  // lint:allow(hot-path-vector)\n"},
                     hot_manifest={"src/kernel.cpp"})
        self.assertNotIn("hot-path-vector", rules_fired(f))


class EnvPrefixTest(unittest.TestCase):
    def test_unprefixed_fires(self):
        f = run_lint({"src/a.cpp":
                      'const char* e = std::getenv("OMP_NUM_THREADS");\n'})
        self.assertIn("env-prefix", rules_fired(f))

    def test_prefixed_clean(self):
        f = run_lint({"src/a.cpp":
                      'const char* e = std::getenv("EXACLIM_THREADS");\n'})
        self.assertNotIn("env-prefix", rules_fired(f))

    def test_comment_ignored(self):
        f = run_lint({"src/a.cpp": '// like getenv("HOME") would\n'})
        self.assertNotIn("env-prefix", rules_fired(f))

    def test_suppressed(self):
        f = run_lint({"src/a.cpp":
                      'std::getenv("HOME");  // lint:allow(env-prefix)\n'})
        self.assertNotIn("env-prefix", rules_fired(f))


class EnvDocumentedTest(unittest.TestCase):
    README = ("| variable | default | effect |\n"
              "|---|---|---|\n"
              "| `EXACLIM_THREADS` | all cores | pool width |\n")
    READ = 'const char* e = std::getenv("EXACLIM_THREADS");\n'

    def test_documented_read_clean(self):
        f = run_lint({"README.md": self.README, "src/a.cpp": self.READ})
        self.assertNotIn("env-documented", rules_fired(f))

    def test_undocumented_read_fires(self):
        f = run_lint({"README.md": self.README,
                      "src/a.cpp": self.READ +
                      'const char* p = std::getenv("EXACLIM_POOL");\n'})
        self.assertIn("src/a.cpp:2: [env-documented] EXACLIM_POOL", f[0])
        self.assertEqual(len(f), 1)

    def test_stale_row_fires(self):
        f = run_lint({"README.md": self.README,
                      "src/a.cpp": "int x;\n"})
        self.assertEqual(len(f), 1)
        self.assertIn("README.md:3: [env-documented]", f[0])
        self.assertIn("EXACLIM_THREADS", f[0])

    def test_reads_outside_src_do_not_count(self):
        f = run_lint({"README.md": self.README, "src/a.cpp": self.READ,
                      "bench/b.cpp":
                      'const char* d = std::getenv("EXACLIM_OTHER");\n'})
        self.assertNotIn("env-documented", rules_fired(f))

    def test_comment_ignored(self):
        f = run_lint({"README.md": self.README, "src/a.cpp": self.READ +
                      '// see getenv("EXACLIM_GONE")\n'})
        self.assertNotIn("env-documented", rules_fired(f))

    def test_suppressed(self):
        f = run_lint({"README.md": self.README, "src/a.cpp": self.READ +
                      'std::getenv("EXACLIM_X");'
                      '  // lint:allow(env-documented)\n'})
        self.assertNotIn("env-documented", rules_fired(f))

    @staticmethod
    def knobs(count: int) -> dict[str, str]:
        names = [f"EXACLIM_K{i}" for i in range(count)]
        return {
            "README.md": "".join(f"| `{n}` | - | - |\n" for n in names),
            "src/a.cpp": "".join(f'const char* e{i} = std::getenv("{n}");\n'
                                 for i, n in enumerate(names)),
        }

    def test_knob_ceiling_clean(self):
        f = run_lint(self.knobs(lint.MAX_ENV_KNOBS))
        self.assertNotIn("env-documented", rules_fired(f))

    def test_knob_over_ceiling_fires(self):
        f = run_lint(self.knobs(lint.MAX_ENV_KNOBS + 1))
        self.assertEqual(len(f), 1)
        self.assertIn("[env-documented]", f[0])
        self.assertIn(f"reads {lint.MAX_ENV_KNOBS + 1} EXACLIM_* knobs", f[0])


class ModuleDepsTest(unittest.TestCase):
    CMAKE = ("exaclim_module(common)\n"
             "exaclim_module(tensor)\n"
             "exaclim_module(comm)\n"
             "exaclim_module(hvd)\n"
             "target_link_libraries(exaclim_tensor PUBLIC exaclim::common)\n"
             "target_link_libraries(exaclim_comm PUBLIC exaclim::common)\n"
             "target_link_libraries(exaclim_hvd PUBLIC exaclim::comm\n"
             "                                         exaclim::tensor)\n")

    def lint(self, rel: str, include: str, cmake: str | None = None):
        return run_lint({"src/CMakeLists.txt": cmake or self.CMAKE,
                         rel: f'#include "{include}"\nint f();\n'})

    def test_undeclared_module_fires(self):
        f = self.lint("src/comm/a.cpp", "tensor/cast.hpp")
        self.assertIn("module-deps", rules_fired(f))

    def test_own_module_clean(self):
        f = self.lint("src/comm/a.cpp", "comm/world.hpp")
        self.assertNotIn("module-deps", rules_fired(f))

    def test_direct_dependency_clean(self):
        f = self.lint("src/comm/a.cpp", "common/error.hpp")
        self.assertNotIn("module-deps", rules_fired(f))

    def test_transitive_dependency_clean(self):
        # hvd -> comm -> common; the multi-line link list is parsed whole.
        f = self.lint("src/hvd/a.hpp", "common/error.hpp")
        self.assertNotIn("module-deps", rules_fired(f))
        f = self.lint("src/hvd/a.hpp", "tensor/cast.hpp")
        self.assertNotIn("module-deps", rules_fired(f))

    def test_declaring_the_link_clears_it(self):
        cmake = self.CMAKE.replace(
            "exaclim_comm PUBLIC exaclim::common",
            "exaclim_comm PUBLIC exaclim::tensor")
        f = self.lint("src/comm/a.cpp", "tensor/cast.hpp", cmake)
        self.assertNotIn("module-deps", rules_fired(f))

    def test_outside_src_modules_exempt(self):
        f = self.lint("tests/a.cpp", "tensor/cast.hpp")
        self.assertNotIn("module-deps", rules_fired(f))
        f = self.lint("src/a.cpp", "tensor/cast.hpp")
        self.assertNotIn("module-deps", rules_fired(f))

    def test_commented_include_ignored(self):
        f = run_lint({"src/CMakeLists.txt": self.CMAKE,
                      "src/comm/a.cpp": '// #include "tensor/cast.hpp"\n'})
        self.assertNotIn("module-deps", rules_fired(f))

    def test_suppressed(self):
        f = run_lint({"src/CMakeLists.txt": self.CMAKE,
                      "src/comm/a.cpp": '#include "tensor/cast.hpp"'
                                        '  // lint:allow(module-deps)\n'})
        self.assertNotIn("module-deps", rules_fired(f))


class SrcReachableTest(unittest.TestCase):
    LIB = {"src/a/x.hpp": '#pragma once\n#include "b/y.hpp"\n',
           "src/a/x.cpp": '#include "a/x.hpp"\n',
           "src/b/y.hpp": "#pragma once\n",
           "src/b/y.cpp": '#include "b/y.hpp"\n'}

    def unreached(self, files: dict[str, str]) -> list[str]:
        return sorted(f.split(":", 1)[0] for f in run_lint(files)
                      if "[src-reachable]" in f)

    def test_test_only_file_fires(self):
        f = self.unreached({**self.LIB, "bench/b.cpp": "int main();\n",
                            "tests/t.cpp": '#include "a/x.hpp"\n'})
        self.assertEqual(f, sorted(self.LIB))

    def test_transitive_include_and_paired_cpp_clean(self):
        f = self.unreached({**self.LIB,
                            "examples/e.cpp": '#include "a/x.hpp"\n'})
        self.assertEqual(f, [])

    def test_perfbench_entry_and_sibling_include(self):
        f = self.unreached({**self.LIB,
                            "src/b/y.hpp": '#pragma once\n#include "z.hpp"\n',
                            "src/b/z.hpp": "#pragma once\n",
                            "perfbench/w/main.cpp": '#include "b/y.hpp"\n'})
        self.assertEqual(f, ["src/a/x.cpp", "src/a/x.hpp"])

    def test_cmake_named_tu_of_reached_module_clean(self):
        f = self.unreached({
            **self.LIB,
            "src/CMakeLists.txt": "set_source_files_properties("
                                  "${DIR}/b/y_avx2.cpp PROPERTIES X)\n",
            "src/b/y_avx2.cpp": "int k;\n",
            "src/b/orphan.cpp": "int o;\n",
            "bench/b.cpp": '#include "b/y.hpp"\n'})
        self.assertEqual(f, ["src/a/x.cpp", "src/a/x.hpp",
                             "src/b/orphan.cpp"])

    def test_commented_include_ignored(self):
        f = self.unreached({**self.LIB,
                            "bench/b.cpp": '// #include "a/x.hpp"\n'})
        self.assertEqual(f, sorted(self.LIB))

    def test_tree_without_entry_points_skipped(self):
        self.assertEqual(self.unreached(self.LIB), [])


class AllocGuardIncludeTest(unittest.TestCase):
    def test_missing_include_fires(self):
        f = run_lint({"src/a.cpp":
                      'void f() { EXACLIM_ASSERT_NO_ALLOC("f"); }\n'})
        self.assertIn("alloc-guard-include", rules_fired(f))

    def test_census_macro_fires_too(self):
        f = run_lint({"src/a.cpp":
                      'void f() { EXACLIM_ALLOC_CENSUS("f"); }\n'})
        self.assertIn("alloc-guard-include", rules_fired(f))

    def test_with_include_clean(self):
        f = run_lint({"src/a.cpp":
                      '#include "common/alloc_tracker.hpp"\n'
                      'void f() { EXACLIM_ASSERT_NO_ALLOC("f"); }\n'})
        self.assertNotIn("alloc-guard-include", rules_fired(f))

    def test_tracker_itself_exempt(self):
        f = run_lint({"src/common/alloc_tracker.cpp":
                      "void f() { EXACLIM_ALLOC_SITE(s, \"x\"); }\n"})
        self.assertNotIn("alloc-guard-include", rules_fired(f))


class HelperTest(unittest.TestCase):
    def test_strip_keeps_token_boundaries(self):
        self.assertEqual(lint.strip_comments_and_strings('f("x") // c'),
                         'f("") ')

    def test_strip_keep_strings(self):
        self.assertEqual(lint.strip_comments_keep_strings('f("x") // c'),
                         'f("x") ')

    def test_block_comment_spanning_lines(self):
        f = run_lint({"src/a.cpp":
                      "/* block with std::endl\n"
                      "   and new int(3) inside\n"
                      "*/ int x;\n"})
        self.assertEqual(rules_fired(f), set())

    def test_hot_manifest_parser(self):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "manifest.txt"
            p.write_text("# comment\n\nsrc/a.cpp  # trailing\nsrc/b.cpp\n")
            self.assertEqual(lint.load_hot_manifest(p),
                             {"src/a.cpp", "src/b.cpp"})
        self.assertEqual(lint.load_hot_manifest(Path("/nonexistent")), set())


if __name__ == "__main__":
    unittest.main()
