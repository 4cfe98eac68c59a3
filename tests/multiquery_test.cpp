/**
 * @file
 * Fused multi-query execution: the product engine's per-query match sets
 * must be bit-identical to N independent single-query runs — for every
 * engine configuration, including query mixes that disagree about the
 * skippability of a subtree (one query's irrelevant region is another's
 * match territory), filter-carrying sets, and sets run as sequential
 * product groups (forced here through the engine's state cap). The suite
 * is registered in DESCEND_TIERED_TESTS, so ctest re-runs it with every
 * dispatch tier forced via DESCEND_SIMD_LEVEL.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "descend/multi/fused.h"
#include "descend/multi/multi_stream.h"
#include "descend/multi/product_engine.h"
#include "descend/obs/report.h"
#include "descend/util/errors.h"
#include "descend/workloads/datasets.h"
#include "test_helpers.h"

namespace descend {
namespace {

using multi::CollectingMultiSink;
using multi::CollectingMultiStreamSink;
using multi::CountingMultiSink;
using multi::CountingMultiStreamSink;
using multi::MultiQuery;
using multi::MultiStreamExecutor;
using multi::ProductDescendEngine;
using testing::describe;
using testing::engine_configurations;

/** N independent single-query runs with the same options — the oracle. */
std::vector<std::vector<std::size_t>> independent_offsets(
    const std::vector<std::string>& queries, const PaddedString& document,
    const EngineOptions& options)
{
    std::vector<std::vector<std::size_t>> all;
    for (const std::string& text : queries) {
        DescendEngine engine(automaton::CompiledQuery::compile(text), options);
        OffsetSink sink;
        EXPECT_EQ(engine.run(document, sink), EngineStatus{})
            << "independent run failed: " << text;
        all.push_back(sink.offsets());
    }
    return all;
}

/** The smallest state cap every single query of @p set fits under: the
 *  cap that splits the set into the most product groups. */
int finest_cap(const MultiQuery& set)
{
    int cap = 2;
    for (std::size_t d = 0; d < set.num_distinct(); ++d) {
        const std::vector<int> one{static_cast<int>(d)};
        while (true) {
            try {
                multi::QuerySetCompiler::compile(set, one, cap);
                break;
            } catch (const LimitError&) {
                ++cap;
            }
        }
    }
    return cap;
}

/** The set run as the most product groups a state cap can force; nullopt
 *  when even that cap holds the whole set in one automaton. */
std::optional<ProductDescendEngine> grouped_engine(
    const std::vector<std::string>& queries, const EngineOptions& options)
{
    MultiQuery set = MultiQuery::compile(queries);
    const int cap = finest_cap(set);
    ProductDescendEngine engine(std::move(set), options, cap);
    if (engine.groups().size() < 2) {
        return std::nullopt;
    }
    return engine;
}

/** True when the set's product automaton tracks array-entry counters. */
bool counting(const std::vector<std::string>& queries)
{
    return multi::QuerySetCompiler::compile(MultiQuery::compile(queries))
        .has_indices();
}

/** Runs @p engine and checks it against @p expected, plus the obs
 *  identities every run keeps: each pass accounts every block, and every
 *  product skip is a child, sibling or within skip of some group. */
void expect_engine_matches(const ProductDescendEngine& engine,
                           const PaddedString& document,
                           const std::vector<std::string>& queries,
                           const std::vector<std::vector<std::size_t>>& expected)
{
    CollectingMultiSink sink(queries.size());
    RunStats stats = engine.run_with_stats(document, sink);
    ASSERT_EQ(stats.status, EngineStatus{});
    for (std::size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(sink.offsets(q), expected[q]) << "query: " << queries[q];
    }
    EXPECT_EQ(stats.counters.get(obs::Counter::kProductSkips),
              stats.child_skips() + stats.sibling_skips() +
                  stats.within_skips());
    if constexpr (obs::kEnabled) {
        EXPECT_EQ(obs::accounted_blocks(stats.counters),
                  engine.groups().size() * obs::total_blocks(document.size()));
        std::uint64_t states = 0;
        for (const multi::ProductAutomaton& group : engine.groups()) {
            states += static_cast<std::uint64_t>(group.num_states());
        }
        EXPECT_EQ(stats.counters.get(obs::Counter::kProductStates), states);
    }
}

/** Fused == N independent, for every engine configuration, on one
 *  product automaton and on the most finely grouped split of the set. */
void expect_fused_matches_independent(const std::vector<std::string>& queries,
                                      const std::string& document)
{
    PaddedString padded(document);
    for (const EngineOptions& options : engine_configurations()) {
        SCOPED_TRACE("configuration: " + describe(options));
        std::vector<std::vector<std::size_t>> expected =
            independent_offsets(queries, padded, options);
        ProductDescendEngine fused(MultiQuery::compile(queries), options);
        ASSERT_EQ(fused.groups().size(), 1u);
        expect_engine_matches(fused, padded, queries, expected);
        if (std::optional<ProductDescendEngine> grouped =
                grouped_engine(queries, options)) {
            SCOPED_TRACE("groups: " + std::to_string(grouped->groups().size()));
            expect_engine_matches(*grouped, padded, queries, expected);
        }
    }
}

// ------------------------------------------------------------- compilation

TEST(MultiQueryCompile, SharedAlphabet)
{
    MultiQuery set = MultiQuery::compile(
        std::vector<std::string>{"$.a.b", "$..b", "$.c.*"});
    EXPECT_EQ(set.size(), 3u);
    // The union alphabet knows every label of every query.
    for (const char* label : {"a", "b", "c"}) {
        EXPECT_NE(set.alphabet().label_symbol(label),
                  set.alphabet().other_symbol())
            << label;
    }
    EXPECT_FALSE(set.all_root_accepting());
}

TEST(MultiQueryCompile, EmptySetIsAnError)
{
    EXPECT_ANY_THROW(MultiQuery::compile(std::vector<std::string>{}));
}

// ------------------------------------------------------------------ dedup

TEST(MultiQueryCompile, DuplicateQueriesShareOneDistinctSlot)
{
    // A 100x-duplicated two-query set: compilation and execution cost are
    // per DISTINCT query; every duplicate subscription keeps its input
    // index as an owner of the shared slot.
    std::vector<std::string> queries;
    for (int i = 0; i < 100; ++i) {
        queries.push_back("$..id");
        queries.push_back("$.meta.id");
    }
    MultiQuery set = MultiQuery::compile(queries);
    EXPECT_EQ(set.size(), 200u);
    ASSERT_EQ(set.num_distinct(), 2u);
    EXPECT_EQ(set.owners(0).size(), 100u);
    EXPECT_EQ(set.owners(1).size(), 100u);
    for (std::size_t i = 0; i < set.size(); ++i) {
        EXPECT_EQ(set.distinct_index(i), i % 2);
    }
    // Spelling variants canonicalize to the same distinct query.
    MultiQuery spelled = MultiQuery::compile(
        std::vector<std::string>{"$.a.b", "$['a']['b']", "$..c"});
    EXPECT_EQ(spelled.num_distinct(), 2u);
    EXPECT_EQ(spelled.distinct_index(0), spelled.distinct_index(1));
}

TEST(MultiEngine, HundredFoldDuplicatedSetReplicatesResults)
{
    std::string document =
        R"({"meta": {"id": 1}, "rows": [{"id": 2}, {"nested": {"id": 3}}]})";
    std::vector<std::string> queries;
    for (int i = 0; i < 100; ++i) {
        queries.push_back("$..id");
        queries.push_back("$.meta.id");
    }
    PaddedString padded(document);
    std::vector<std::vector<std::size_t>> expected = independent_offsets(
        {"$..id", "$.meta.id"}, padded, EngineOptions{});
    ProductDescendEngine fused(MultiQuery::compile(queries));
    CollectingMultiSink sink(queries.size());
    ASSERT_EQ(fused.run(padded, sink), EngineStatus{});
    for (std::size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(sink.offsets(q), expected[q % 2]) << "query " << q;
    }
}

TEST(MultiEngine, DuplicatesTripTheMatchLimitLikeTheOriginal)
{
    // The per-query limit counts matches of the DISTINCT query once, so a
    // duplicated subscription trips at the same offset as a lone one.
    std::string document = R"({"a": 1, "b": {"a": 2}, "c": {"a": 3}})";
    PaddedString padded(document);
    EngineOptions options;
    options.limits.max_match_count = 2;
    DescendEngine single(automaton::CompiledQuery::compile("$..a"), options);
    OffsetSink single_sink;
    EngineStatus expected = single.run(padded, single_sink);
    ASSERT_EQ(expected.code, StatusCode::kMatchLimit);
    ProductDescendEngine fused(
        MultiQuery::compile(std::vector<std::string>{"$..a", "$..a", "$..a"}),
        options);
    CollectingMultiSink sink(3);
    EXPECT_EQ(fused.run(padded, sink), expected);
}

// -------------------------------------------------------- product automaton

TEST(ProductAutomaton, SharedPrefixCollapsesToOneStatePath)
{
    // 32 subscriptions down the same object spine: the product trie shares
    // the spine, so states grow as prefix + one leaf per subscription —
    // nowhere near 32 independent four-state automata.
    std::vector<std::string> queries;
    for (int i = 0; i < 32; ++i) {
        queries.push_back("$.a.b.c.f" + std::to_string(i));
    }
    ProductDescendEngine engine(MultiQuery::compile(queries));
    ASSERT_EQ(engine.groups().size(), 1u);
    EXPECT_GE(engine.groups()[0].num_states(), 32);
    EXPECT_LE(engine.groups()[0].num_states(), 40);
}

TEST(ProductAutomaton, OverCapSetsSplitIntoGroupsAndSingletonsMustFit)
{
    MultiQuery set = MultiQuery::compile(
        std::vector<std::string>{"$..a..b", "$.c.*.d"});
    // The default cap holds the whole set in one automaton, and the
    // deprecated backend selector builds that same engine for every value.
    EXPECT_EQ(ProductDescendEngine(set).groups().size(), 1u);
    for (multi::FusedBackend backend :
         {multi::FusedBackend::kAuto, multi::FusedBackend::kLanes,
          multi::FusedBackend::kProduct}) {
        std::unique_ptr<ProductDescendEngine> engine =
            multi::make_fused_engine(set, {}, backend);
        EXPECT_NE(engine->name().find("product"), std::string::npos);
        EXPECT_EQ(engine->groups().size(), 1u);
    }
    // A cap no single query fits under is the one compile failure left.
    EXPECT_THROW(ProductDescendEngine(set, EngineOptions{}, 2), LimitError);
}

TEST(ProductAutomaton, CapsForceTwoAndThreeGroups)
{
    // Each `$.X.Y` query alone takes 4 subsets (root, X, Y, empty); a pair
    // takes 6. A cap of 5 therefore fits singletons only.
    MultiQuery pair =
        MultiQuery::compile(std::vector<std::string>{"$.b.y", "$.a.x"});
    EXPECT_EQ(ProductDescendEngine(pair, {}, 5).groups().size(), 2u);
    MultiQuery triple = MultiQuery::compile(
        std::vector<std::string>{"$.c.z", "$.b.y", "$.a.x"});
    EXPECT_EQ(ProductDescendEngine(triple, {}, 5).groups().size(), 3u);
    // A cap of 7 fits pairs: four queries split into two halves.
    MultiQuery quad = MultiQuery::compile(
        std::vector<std::string>{"$.d.w", "$.c.z", "$.b.y", "$.a.x"});
    EXPECT_EQ(ProductDescendEngine(quad, {}, 7).groups().size(), 2u);
    EXPECT_EQ(ProductDescendEngine(quad, {}, 5).groups().size(), 4u);

    std::string document =
        R"({"a": {"x": 1}, "b": {"y": [2, 3]}, "c": {"z": {"k": 4}}, "d": 5})";
    PaddedString padded(document);
    for (const EngineOptions& options : engine_configurations()) {
        SCOPED_TRACE("configuration: " + describe(options));
        for (int cap : {5, 7}) {
            std::vector<std::string> texts{"$.d.w", "$.c.z", "$.b.y", "$.a.x"};
            ProductDescendEngine grouped(MultiQuery::compile(texts), options,
                                         cap);
            expect_engine_matches(grouped, padded, texts,
                                  independent_offsets(texts, padded, options));
        }
    }
}

TEST(ProductAutomaton, EverySingleQueryFitsUnderTheSetCap)
{
    // A group of one query always compiles: MultiQuery::compile already
    // held the query to the single-query DFA cap (2^14), and its product
    // automaton stays under the set cap (2^15). Probe the blowup families
    // of Section 3.1 up to their largest member that still compiles alone.
    const std::vector<std::pair<std::string, std::string>> families = {
        {"$..a", ".*"}, {"$..a", "..b.*"}, {"$..*", ".a"}, {"$..a.*", "[1]"}};
    for (const auto& [head, step] : families) {
        std::string largest;
        for (std::string text = head + step;; text += step) {
            try {
                automaton::CompiledQuery::compile(text);
            } catch (const LimitError&) {
                break;
            }
            largest = text;
        }
        ASSERT_FALSE(largest.empty()) << head << step;
        SCOPED_TRACE(largest);
        EXPECT_NO_THROW(multi::QuerySetCompiler::compile(
            MultiQuery::compile(std::vector<std::string>{largest})));
    }
}

TEST(ProductAutomaton, SubscriberSetsFanOutToEveryOwner)
{
    // Two subscriptions accepting at the same node must both be reported,
    // interleaved with a third that accepts elsewhere.
    std::string document = R"({"a": {"b": 1, "c": 2}})";
    expect_fused_matches_independent({"$.a.b", "$..b", "$.a.c"}, document);
}

// ----------------------------------------------------------- single-pass

TEST(MultiEngine, FusedMatchesIndependentRuns)
{
    std::string document = R"({
      "a": {"b": 1, "c": {"b": 2}},
      "c": {"x": 3, "y": [4, 5]},
      "b": {"deep": {"b": 6}}
    })";
    expect_fused_matches_independent({"$.a.b", "$..b", "$.c.*", "$..c..b"},
                                     document);
}

TEST(MultiEngine, SingleQuerySetDegeneratesToTheEngine)
{
    std::string document = R"({"a": {"b": [1, {"b": 2}]}})";
    expect_fused_matches_independent({"$..b"}, document);
}

TEST(MultiEngine, SkippabilityDisagreeingDescendantMixes)
{
    // The subtree under "payload" is irrelevant to the child-path queries
    // but the descendant queries must walk it; conversely "meta" matches
    // the child queries and is junk to the descendant ones. A product
    // state certifies a skip only when no query of its group can match
    // below, so each fast-forward is taken or not for the group at once.
    std::string document = R"({
      "meta": {"id": 1, "name": "x"},
      "payload": {
        "rows": [
          {"id": 2, "nested": {"id": 3, "name": "y"}},
          {"name": "z", "list": [{"id": 4}]}
        ]
      },
      "id": 5
    })";
    expect_fused_matches_independent(
        {"$.meta.id", "$..id", "$.payload.rows.*.id", "$..nested..name",
         "$.meta.*"},
        document);
}

TEST(MultiEngine, DeadQueriesDoNotBlockSkips)
{
    // Queries that can never match again ("$.absent.x") must not keep the
    // product from skipping; the live queries' results are unaffected and
    // the dead ones stay empty.
    std::string document = R"({"a": {"big": [[[1, 2], 3], {"x": 4}]}, "b": 5})";
    expect_fused_matches_independent({"$.absent.x", "$.b", "$..x", "$.zzz.*"},
                                     document);
}

TEST(MultiEngine, IndexSelectorsNextToPlainQueries)
{
    // One counting query forces array-entry tracking for the set; the
    // non-counting queries must be unaffected.
    std::string document =
        R"({"items": [{"v": 1}, {"v": 2}, {"v": 3}], "v": [10, 20]})";
    expect_fused_matches_independent({"$.items[1].v", "$..v", "$.v[0]"},
                                     document);
    EXPECT_TRUE(counting({"$.a[0]", "$.b"}));
}

TEST(MultiQueryCompile, SpellingVariantsDedupToOneSlot)
{
    // Canonicalization keys dedup: dot form, single- and double-quoted
    // bracket forms of the same path share one distinct slot.
    MultiQuery set = MultiQuery::compile(
        std::vector<std::string>{"$.a", "$['a']", "$[\"a\"]"});
    EXPECT_EQ(set.size(), 3u);
    EXPECT_EQ(set.num_distinct(), 1u);
    EXPECT_EQ(set.owners(0).size(), 3u);
}

TEST(MultiQueryCompile, SlicesMarkTheSetCounting)
{
    EXPECT_TRUE(counting({"$.a[1:3]", "$.b"}));
    EXPECT_TRUE(counting({"$['x','y']", "$.a[2:]"}));
    EXPECT_FALSE(counting({"$['x','y']", "$..b"}));
    // Per group: only the group holding the index query counts entries.
    std::optional<ProductDescendEngine> grouped =
        grouped_engine({"$.a[0].x", "$.b.y"}, EngineOptions{});
    ASSERT_TRUE(grouped.has_value());
    ASSERT_EQ(grouped->groups().size(), 2u);
    EXPECT_NE(grouped->groups()[0].has_indices(),
              grouped->groups()[1].has_indices());
}

TEST(MultiEngine, ExtendedSelectorsMatchIndependentRuns)
{
    // Slices, unions, spelling variants and plain indices fused together;
    // the engine must reproduce N independent runs exactly.
    std::string document = R"({
        "a": [{"x": 1}, {"x": 2}, {"x": 3}, {"x": 4}],
        "c": {"a": [10, 20, 30]},
        "x": 5
    })";
    expect_fused_matches_independent(
        {"$.a[1:3]", "$['a','c']", "$.a[0]", "$..x", "$['a'][2].x"}, document);
    // Overlapping slice/index guards over one shared alphabet: the union
    // boundary set refines each query's own cells.
    expect_fused_matches_independent(
        {"$.a[0:2]", "$.a[1:4]", "$.a[2]", "$.a[1:]"}, document);
}

TEST(MultiEngine, FilterSetsMatchIndependentRuns)
{
    std::string document = R"({
        "a": [{"x": 1, "y": "k"}, {"x": 3}, {"x": 9, "y": "k"}, 7],
        "b": {"x": 7, "a": [{"x": 5}]},
        "c": {"a": {"p": {"x": 4}, "q": {"y": "k"}}}
    })";
    // Two different filters on one path: both accept at the same product
    // state, and each query's own gate decides.
    expect_fused_matches_independent(
        {"$.a[?(@.x>2)]", "$.a[?(@.y=='k')]", "$.a.*"}, document);
    // Duplicated (and respelled) filter queries share one distinct slot
    // and one gate; every owner still receives the admitted matches.
    expect_fused_matches_independent(
        {"$.a[?(@.x>2)]", "$['a'][?(@.x>2)]", "$..x", "$.a[?(@.x>2)]"},
        document);
    // Filter next to slices and indices on the same path.
    expect_fused_matches_independent(
        {"$.a[?(@.x)]", "$.a[1:3]", "$.a[0:2][?(@.y)]", "$.a[3]"}, document);
    // Filter next to head-skip queries: `$..a` and `$..a[?...]` share the
    // head label, so the whole set still head-skips on it.
    expect_fused_matches_independent({"$..a", "$..a[?(@.x>=5)]"}, document);
    expect_fused_matches_independent({"$..x", "$..a[?(@.x)]", "$.c.*"},
                                     document);
    // Descendant filters on every candidate, including atoms (a filter
    // over an atom never resolves its chain).
    expect_fused_matches_independent({"$..a[?(@.x!=1)]", "$..p[?(@.x)]"},
                                     document);
}

TEST(MultiEngine, FilterRejectedCandidatesDoNotUseUpTheMatchLimit)
{
    // $.a[?(@.x>2)] sees four candidates but admits two; a limit of two
    // must hold for it exactly as for its independent run.
    std::string document = R"({"a": [{"x": 1}, {"x": 3}, {"x": 0}, {"x": 9}]})";
    PaddedString padded(document);
    EngineOptions options;
    options.limits.max_match_count = 2;
    std::vector<std::string> queries{"$.a[?(@.x>2)]", "$.a[0].x"};
    std::vector<std::vector<std::size_t>> expected =
        independent_offsets(queries, padded, options);
    ASSERT_EQ(expected[0].size(), 2u);
    ProductDescendEngine fused(MultiQuery::compile(queries), options);
    expect_engine_matches(fused, padded, queries, expected);
    std::optional<ProductDescendEngine> grouped = grouped_engine(queries, options);
    ASSERT_TRUE(grouped.has_value());
    expect_engine_matches(*grouped, padded, queries, expected);

    // One more admitted candidate trips the limit where the independent
    // run trips it.
    options.limits.max_match_count = 1;
    DescendEngine single(automaton::CompiledQuery::compile(queries[0]), options);
    OffsetSink single_sink;
    EngineStatus tripped = single.run(padded, single_sink);
    ASSERT_EQ(tripped.code, StatusCode::kMatchLimit);
    CollectingMultiSink sink(queries.size());
    EXPECT_EQ(ProductDescendEngine(MultiQuery::compile(queries), options)
                  .run(padded, sink),
              tripped);
}

TEST(MultiEngine, GroupedRunsKeepTheRunContract)
{
    const std::vector<std::string> queries{"$.d.w", "$..a", "$.b.y", "$.a.x"};
    // Per-query limit: $..a matches three times; a limit of two fails the
    // run at the offset where its independent run fails.
    {
        std::string document = R"({"a": 1, "b": {"a": 2}, "c": {"a": 3}})";
        PaddedString padded(document);
        EngineOptions options;
        options.limits.max_match_count = 2;
        DescendEngine single(automaton::CompiledQuery::compile("$..a"), options);
        OffsetSink single_sink;
        EngineStatus expected = single.run(padded, single_sink);
        ASSERT_EQ(expected.code, StatusCode::kMatchLimit);
        std::optional<ProductDescendEngine> grouped =
            grouped_engine(queries, options);
        ASSERT_TRUE(grouped.has_value());
        CollectingMultiSink sink(queries.size());
        EXPECT_EQ(grouped->run(padded, sink), expected);
    }
    // Malformed input fails the set, and never as a limit.
    {
        PaddedString padded(R"({"a": {"x": 1}, "b": {"y": 2})");
        std::optional<ProductDescendEngine> grouped =
            grouped_engine(queries, EngineOptions{});
        ASSERT_TRUE(grouped.has_value());
        CollectingMultiSink sink(queries.size());
        EngineStatus status = grouped->run(padded, sink);
        EXPECT_FALSE(status.ok());
        EXPECT_FALSE(status.is_limit()) << to_string(status);
    }
    // An already-expired budget fails the first pass at offset 0, and no
    // later pass runs.
    {
        PaddedString padded(R"({"a": {"x": 1}, "b": {"y": 2}})");
        EngineOptions options;
        options.budget = {RunBudget::Clock::now() - std::chrono::hours(1),
                          nullptr};
        std::optional<ProductDescendEngine> grouped =
            grouped_engine(queries, options);
        ASSERT_TRUE(grouped.has_value());
        CollectingMultiSink sink(queries.size());
        RunStats stats = grouped->run_with_stats(padded, sink);
        EXPECT_EQ(stats.status,
                  (EngineStatus{StatusCode::kDeadlineExceeded, 0}));
        for (std::size_t q = 0; q < queries.size(); ++q) {
            EXPECT_TRUE(sink.offsets(q).empty());
        }
        if constexpr (obs::kEnabled) {
            EXPECT_EQ(stats.counters.get(obs::Counter::kDeadlineHits), 1u);
        }
    }
}

TEST(MultiEngine, GroupedRunAccountsEveryPass)
{
    // k groups make k passes: the block counters sum to k times the
    // document's blocks and product_states sums the groups' states.
    std::string document = workloads::generate_crossref(64 * 1024);
    const std::vector<std::string> queries{"$..DOI", "$.items.*.title",
                                           "$..author..ORCID",
                                           "$.items.*.author.*.given"};
    std::optional<ProductDescendEngine> grouped =
        grouped_engine(queries, EngineOptions{});
    ASSERT_TRUE(grouped.has_value());
    ASSERT_GE(grouped->groups().size(), 2u);
    PaddedString padded(document);
    // expect_engine_matches asserts both identities next to the matches.
    expect_engine_matches(*grouped, padded, queries,
                          independent_offsets(queries, padded, EngineOptions{}));
}

TEST(MultiEngine, GeneratedDatasetMixes)
{
    // Realistic multi-block documents: head-skip-able descendant queries
    // fused with child-path queries over the same bytes.
    std::string crossref = workloads::generate_crossref(200 * 1024);
    expect_fused_matches_independent(
        {"$..DOI", "$.items.*.title", "$..author..affiliation..name",
         "$.items.*.author.*.ORCID"},
        crossref);
    std::string ast = workloads::generate_ast(150 * 1024);
    expect_fused_matches_independent(
        {"$..decl.name", "$..inner..inner..type.qualType", "$..range.end.col"},
        ast);
}

TEST(MultiEngine, CountingSinkAgreesWithCollectingSink)
{
    std::vector<std::string> queries{"$..b", "$.a.*"};
    std::string document = R"({"a": {"b": 1, "c": 2}, "b": 3})";
    PaddedString padded(document);
    ProductDescendEngine fused(MultiQuery::compile(queries));
    CollectingMultiSink collect(queries.size());
    CountingMultiSink count(queries.size());
    ASSERT_EQ(fused.run(padded, collect), EngineStatus{});
    ASSERT_EQ(fused.run(padded, count), EngineStatus{});
    std::size_t total = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(count.count(q), collect.offsets(q).size());
        total += collect.offsets(q).size();
    }
    EXPECT_EQ(count.total(), total);
}

TEST(MultiEngine, PerQueryMatchLimitFailsTheRun)
{
    // EngineLimits::max_match_count is enforced per query, mirroring N
    // independent runs: the query with three matches trips a limit of two
    // at its third match's offset even though the other is under it.
    std::string document = R"({"a": 1, "b": {"a": 2}, "c": {"a": 3}})";
    PaddedString padded(document);
    EngineOptions options;
    options.limits.max_match_count = 2;
    DescendEngine single(automaton::CompiledQuery::compile("$..a"), options);
    OffsetSink single_sink;
    EngineStatus expected = single.run(padded, single_sink);
    ASSERT_EQ(expected.code, StatusCode::kMatchLimit);
    ProductDescendEngine fused(
        MultiQuery::compile(std::vector<std::string>{"$..a", "$.a"}), options);
    CollectingMultiSink sink(2);
    EXPECT_EQ(fused.run(padded, sink), expected);
}

TEST(MultiEngine, MalformedDocumentFailsTheSet)
{
    PaddedString padded(R"({"a": {"b": 1})");  // truncated
    ProductDescendEngine fused(
        MultiQuery::compile(std::vector<std::string>{"$.a.b", "$..b"}));
    CollectingMultiSink sink(2);
    EXPECT_FALSE(fused.run(padded, sink).ok());
}

// -------------------------------------------------------------- streaming

/** NDJSON stream whose records exercise disagreement and failure. */
std::string build_stream(std::size_t records)
{
    std::string text;
    for (std::size_t i = 0; i < records; ++i) {
        switch (i % 4) {
        case 0:
            text += R"({"meta": {"id": 1}, "payload": {"id": 2, "x": 3}})";
            break;
        case 1:
            text += R"({"id": [4, {"id": 5}], "x": {"deep": {"id": 6}}})";
            break;
        case 2:
            text += R"({"x": 7})";
            break;
        default:
            text += R"({"payload": {"rows": [{"id": 8}, {"id": 9}]}})";
            break;
        }
        text += i % 3 == 0 ? "\r\n" : "\n";
    }
    return text;
}

TEST(MultiStream, FusedStreamMatchesPerRecordIndependentRuns)
{
    std::vector<std::string> queries{"$..id", "$.meta.id", "$.payload.*",
                                     "$.x"};
    std::string text = build_stream(23);
    PaddedString input(text);
    std::vector<stream::RecordSpan> records =
        stream::split_records(input, simd::best_kernels());

    // Oracle: each record copied out and run through N single engines.
    std::vector<CollectingMultiStreamSink::Match> expected;
    for (std::size_t r = 0; r < records.size(); ++r) {
        PaddedString copy(
            input.view().substr(records[r].begin, records[r].size()));
        std::vector<std::vector<std::size_t>> per_query =
            independent_offsets(queries, copy, EngineOptions{});
        for (std::size_t q = 0; q < queries.size(); ++q) {
            for (std::size_t offset : per_query[q]) {
                expected.push_back({q, r, offset});
            }
        }
    }
    // Replay order: records ascending, then queries ascending — exactly the
    // oracle's nesting above once sorted by (record, query, offset).
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                         return a.record != b.record ? a.record < b.record
                                                     : a.query < b.query;
                     });

    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        stream::StreamOptions options;
        options.threads = threads;
        options.records_per_batch = 3;  // force several batches
        MultiStreamExecutor executor =
            MultiStreamExecutor::for_queries(queries, options);
        CollectingMultiStreamSink sink;
        stream::StreamResult result = executor.run(input, sink);
        EXPECT_EQ(result.records, records.size()) << threads << " threads";
        EXPECT_TRUE(sink.errors().empty()) << threads << " threads";
        EXPECT_EQ(sink.matches(), expected) << threads << " threads";
        EXPECT_EQ(result.matches, expected.size()) << threads << " threads";

        // The same stream over forced product groups replays identically.
        std::optional<ProductDescendEngine> grouped =
            grouped_engine(queries, options.engine);
        ASSERT_TRUE(grouped.has_value());
        MultiStreamExecutor grouped_executor(std::move(*grouped), options);
        CollectingMultiStreamSink grouped_sink;
        grouped_executor.run(input, grouped_sink);
        EXPECT_EQ(grouped_sink.matches(), expected) << threads << " threads";
    }
}

TEST(MultiStream, MalformedRecordFailsEveryQueryOfThatRecordOnly)
{
    std::string text = R"({"id": 1})" "\n" R"({"id": )" "\n" R"({"id": 3})" "\n";
    PaddedString input(text);
    MultiStreamExecutor executor = MultiStreamExecutor::for_queries(
        std::vector<std::string>{"$.id", "$..id"});
    CollectingMultiStreamSink sink;
    stream::StreamResult result = executor.run(input, sink);
    EXPECT_EQ(result.records, 3u);
    EXPECT_EQ(result.failed_records, 1u);
    ASSERT_EQ(sink.errors().size(), 1u);
    EXPECT_EQ(sink.errors()[0].record, 1u);
    // Records 0 and 2 contribute both queries; record 1 contributes
    // nothing.
    ASSERT_EQ(sink.matches().size(), 4u);
    for (const auto& match : sink.matches()) {
        EXPECT_NE(match.record, 1u);
    }

    stream::StreamOptions fail_fast;
    fail_fast.policy = stream::ErrorPolicy::kFailFast;
    MultiStreamExecutor strict = MultiStreamExecutor::for_queries(
        std::vector<std::string>{"$.id", "$..id"}, fail_fast);
    CountingMultiStreamSink counting(2);
    stream::StreamResult aborted = strict.run(input, counting);
    EXPECT_FALSE(aborted.ok());
    EXPECT_EQ(counting.failed_records(), 1u);
}

}  // namespace
}  // namespace descend
