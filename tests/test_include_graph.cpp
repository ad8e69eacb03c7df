// Unit tests for tsn_analyze's include-graph builder, cycle detector and
// layer checker, run over in-memory file trees via the FileProvider hook.
// The on-disk corpora (tools/tsn_analyze/corpus/layering) exercise the same
// code end-to-end through the CLI; these tests pin the builder's edge-level
// behaviour (resolution, line numbers, angle-include handling) that the
// corpus format cannot express.
#include "include_graph.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "json_mini.hpp"

namespace tsn::analyze {
namespace {

using json::JsonValue;
using json::parse_json;

using Tree = std::map<std::string, std::vector<std::string>>;

FileProvider provider_for(const Tree& tree) {
  return [&tree](const std::string& rel, std::vector<std::string>& lines) {
    const auto it = tree.find(rel);
    if (it == tree.end()) return false;
    lines = it->second;
    return true;
  };
}

std::vector<std::string> keys_of(const Tree& tree) {
  std::vector<std::string> out;
  for (const auto& [path, lines] : tree) out.push_back(path);
  return out;
}

std::vector<std::string> rules_of(const Sink& sink) {
  std::vector<std::string> out;
  for (const auto& f : sink.findings) out.push_back(f.rule);
  return out;
}

TEST(IncludeGraph, DiamondResolvesAllEdges) {
  const Tree tree{
      {"a/base.hpp", {"#pragma once"}},
      {"b/mid1.hpp", {"#pragma once", "#include \"a/base.hpp\""}},
      {"c/mid2.hpp", {"#pragma once", "#include \"a/base.hpp\""}},
      {"d/top.hpp",
       {"#pragma once", "#include \"b/mid1.hpp\"", "#include \"c/mid2.hpp\""}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  ASSERT_EQ(graph.edges.size(), 4U);
  EXPECT_TRUE(graph.edges.at("a/base.hpp").empty());
  ASSERT_EQ(graph.edges.at("d/top.hpp").size(), 2U);
  const IncludeEdge& first = graph.edges.at("d/top.hpp")[0];
  EXPECT_EQ(first.to, "b/mid1.hpp");
  EXPECT_EQ(first.line, 2);
  EXPECT_TRUE(first.resolved);

  Sink sink;
  check_includes(graph, "src", sink);
  EXPECT_TRUE(sink.findings.empty()) << "diamond is acyclic and fully resolved";
}

TEST(IncludeGraph, AngleIncludesAreIgnored) {
  const Tree tree{
      {"a/x.hpp", {"#include <vector>", "#include <a/x.hpp>", "#include \"a/y.hpp\""}},
      {"a/y.hpp", {"#pragma once"}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  ASSERT_EQ(graph.edges.at("a/x.hpp").size(), 1U);
  EXPECT_EQ(graph.edges.at("a/x.hpp")[0].to, "a/y.hpp");
}

TEST(IncludeGraph, CommentedIncludeIsNotAnEdge) {
  const Tree tree{
      {"a/x.hpp", {"// #include \"a/gone.hpp\"", "/* #include \"a/also.hpp\" */"}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  EXPECT_TRUE(graph.edges.at("a/x.hpp").empty());
}

TEST(IncludeGraph, MissingTargetReported) {
  const Tree tree{
      {"a/x.hpp", {"#include \"a/nope.hpp\""}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  ASSERT_EQ(graph.edges.at("a/x.hpp").size(), 1U);
  EXPECT_FALSE(graph.edges.at("a/x.hpp")[0].resolved);

  Sink sink;
  check_includes(graph, "src", sink);
  ASSERT_EQ(sink.findings.size(), 1U);
  EXPECT_EQ(sink.findings[0].rule, "include-missing");
  EXPECT_EQ(sink.findings[0].file, "src/a/x.hpp");
  EXPECT_EQ(sink.findings[0].line, 1);
}

TEST(IncludeGraph, SelfIncludeIsALengthOneCycle) {
  const Tree tree{
      {"a/x.hpp", {"#pragma once", "#include \"a/x.hpp\""}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  Sink sink;
  check_includes(graph, "src", sink);
  ASSERT_EQ(sink.findings.size(), 1U);
  EXPECT_EQ(sink.findings[0].rule, "include-cycle");
  EXPECT_EQ(sink.findings[0].line, 2);
}

TEST(IncludeGraph, TwoFileCycleReportedOnce) {
  const Tree tree{
      {"a/x.hpp", {"#include \"a/y.hpp\""}},
      {"a/y.hpp", {"#pragma once", "#include \"a/x.hpp\""}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  Sink sink;
  check_includes(graph, "src", sink);
  ASSERT_EQ(sink.findings.size(), 1U);
  EXPECT_EQ(sink.findings[0].rule, "include-cycle");
}

TEST(LayerConfig, ClosureIsTransitive) {
  LayerConfig config;
  config.deps = {{"a", {}}, {"b", {"a"}}, {"c", {"b"}}};
  const std::set<std::string> closure = config.closure("c");
  EXPECT_EQ(closure, (std::set<std::string>{"a", "b"}));
  EXPECT_TRUE(config.closure("a").empty());
  EXPECT_EQ(config.validate(), "");
}

TEST(LayerConfig, ValidateRejectsCyclicDeclaration) {
  LayerConfig config;
  config.deps = {{"a", {"b"}}, {"b", {"a"}}};
  EXPECT_NE(config.validate(), "");
}

TEST(LayerConfig, FileOverrideRebindsModule) {
  LayerConfig config;
  config.deps = {{"base", {}}, {"core", {"base"}}};
  config.file_overrides = {{"core/check.hpp", "base"}};
  EXPECT_EQ(config.module_for("core/check.hpp"), "base");
  EXPECT_EQ(config.module_for("core/other.hpp"), "core");
}

TEST(LayerCheck, UpwardIncludeViolates) {
  LayerConfig config;
  config.deps = {{"a", {}}, {"b", {"a"}}};
  const Tree tree{
      {"a/low.hpp", {"#include \"b/high.hpp\""}},
      {"b/high.hpp", {"#pragma once"}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  Sink sink;
  check_layers(graph, config, "src", sink);
  EXPECT_EQ(rules_of(sink), (std::vector<std::string>{"layer-violation"}));
  EXPECT_EQ(sink.findings[0].file, "src/a/low.hpp");
}

TEST(LayerCheck, TransitiveDependencyAllowed) {
  LayerConfig config;
  config.deps = {{"a", {}}, {"b", {"a"}}, {"c", {"b"}}};
  const Tree tree{
      {"a/base.hpp", {"#pragma once"}},
      {"c/top.hpp", {"#include \"a/base.hpp\""}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  Sink sink;
  check_layers(graph, config, "src", sink);
  EXPECT_TRUE(sink.findings.empty()) << "c -> a is in the closure of c's deps";
}

TEST(LayerCheck, UndeclaredModuleReported) {
  LayerConfig config;
  config.deps = {{"a", {}}};
  const Tree tree{
      {"zz/orphan.hpp", {"#pragma once"}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  Sink sink;
  check_layers(graph, config, "src", sink);
  ASSERT_EQ(sink.findings.size(), 1U);
  EXPECT_EQ(sink.findings[0].rule, "unknown-module");
}

TEST(LayerCheck, DefaultConfigIsAcyclic) {
  EXPECT_EQ(default_layer_config().validate(), "");
}

TEST(Baseline, AbsorbsUpToCountThenReportsRemainder) {
  Baseline baseline;
  baseline.entries.push_back({"net/wire.hpp", "raw-memcpy", 1, 0});
  std::vector<Finding> findings{
      {"src/net/wire.hpp", 10, "raw-memcpy", "m"},
      {"src/net/wire.hpp", 20, "raw-memcpy", "m"},
      {"src/net/wire.hpp", 30, "wall-clock", "m"},
  };
  const std::vector<Finding> active =
      apply_baseline(std::move(findings), baseline, "src");
  ASSERT_EQ(active.size(), 2U);
  EXPECT_EQ(active[0].line, 20);
  EXPECT_EQ(active[1].rule, "wall-clock");
  EXPECT_EQ(baseline.entries[0].matched, 1);
}

TEST(JsonMini, ParsesNestedDocument) {
  const auto parsed = parse_json(R"({"a": [1, true, "x"], "b": {"c": null}})");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());
  const JsonValue* a = parsed->get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->array->size(), 3U);
  EXPECT_EQ((*a->array)[2].string, "x");
}

TEST(JsonMini, RejectsTrailingGarbage) {
  std::string error;
  EXPECT_FALSE(parse_json("{} trailing", &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace tsn::analyze
