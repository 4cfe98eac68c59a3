/**
 * @file
 * Run-governance tests: RunBudget/CancelToken semantics, pre-expired and
 * mid-run governance across every engine, deterministic stream-budget
 * behaviour at every thread count on both stream executors (the fused one
 * with a filter query and forced into product groups too), the
 * kRetryScalar degradation policy, and the
 * exact-boundary behaviour of every EngineLimits knob.
 *
 * Determinism discipline: no test here depends on wall-clock timing. A
 * "tripped" budget is always one whose deadline is already in the past (or
 * whose CancelToken is already set) before the run starts, so the outcome
 * is a pure function of the code path, not of scheduling.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "descend/baselines/dom_engine.h"
#include "descend/baselines/ski_engine.h"
#include "descend/baselines/surfer_engine.h"
#include "descend/descend.h"
#include "descend/multi/multi_stream.h"
#include "descend/multi/product_engine.h"
#include "descend/stream/stream_executor.h"
#include "descend/util/budget.h"
#include "test_helpers.h"

namespace descend {
namespace {

/** A budget whose deadline passed long before the run starts. */
RunBudget expired_budget(const CancelToken* token = nullptr)
{
    return {RunBudget::Clock::now() - std::chrono::hours(1), token};
}

// ---------------------------------------------------------------------------
// RunBudget / CancelToken / BudgetGate unit semantics.
// ---------------------------------------------------------------------------

TEST(RunBudgetTest, DefaultIsInactiveAndNeverTrips)
{
    RunBudget budget;
    EXPECT_FALSE(budget.active());
    EXPECT_EQ(budget.exceeded(), StatusCode::kOk);
}

TEST(RunBudgetTest, ExpiredDeadlineTripsAsDeadlineExceeded)
{
    RunBudget budget = expired_budget();
    EXPECT_TRUE(budget.active());
    EXPECT_EQ(budget.exceeded(), StatusCode::kDeadlineExceeded);
}

TEST(RunBudgetTest, CancelTokenTripsAsCancelled)
{
    CancelToken token;
    RunBudget budget = RunBudget::with_cancel(&token);
    EXPECT_TRUE(budget.active());
    EXPECT_EQ(budget.exceeded(), StatusCode::kOk);
    token.cancel();
    EXPECT_EQ(budget.exceeded(), StatusCode::kCancelled);
    token.reset();
    EXPECT_EQ(budget.exceeded(), StatusCode::kOk);
}

TEST(RunBudgetTest, CancelWinsOverExpiredDeadline)
{
    CancelToken token;
    token.cancel();
    RunBudget budget = expired_budget(&token);
    EXPECT_EQ(budget.exceeded(), StatusCode::kCancelled);
}

TEST(RunBudgetTest, TightenedKeepsMinDeadlineAndToken)
{
    CancelToken token;
    RunBudget wide = RunBudget::within_ms(1000000, &token);
    RunBudget::Clock::time_point earlier =
        RunBudget::Clock::now() - std::chrono::seconds(1);
    RunBudget tight = wide.tightened(earlier);
    EXPECT_EQ(tight.deadline, earlier);
    EXPECT_EQ(tight.cancel, &token);
    // Tightening with a *later* point keeps the original deadline.
    RunBudget same = tight.tightened(wide.deadline);
    EXPECT_EQ(same.deadline, earlier);
}

TEST(RunBudgetTest, BudgetGateSamplesAtStrideGranularity)
{
    RunBudget inactive;
    BudgetGate idle(inactive, 4);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(idle.poll(), StatusCode::kOk);
    }
    RunBudget expired = expired_budget();
    BudgetGate gate(expired, 4);
    // The first three polls ride the stride; the fourth samples the clock.
    EXPECT_EQ(gate.poll(), StatusCode::kOk);
    EXPECT_EQ(gate.poll(), StatusCode::kOk);
    EXPECT_EQ(gate.poll(), StatusCode::kOk);
    EXPECT_EQ(gate.poll(), StatusCode::kDeadlineExceeded);
}

TEST(RunBudgetTest, GovernanceCodesAreClassified)
{
    EXPECT_TRUE(is_governance(StatusCode::kDeadlineExceeded));
    EXPECT_TRUE(is_governance(StatusCode::kCancelled));
    EXPECT_FALSE(is_governance(StatusCode::kOk));
    EXPECT_FALSE(is_governance(StatusCode::kDepthLimit));
    EngineStatus status{StatusCode::kCancelled, 7};
    EXPECT_TRUE(status.is_governance());
    EXPECT_FALSE(status.is_limit());
}

// ---------------------------------------------------------------------------
// Pre-expired governance across every engine: the run must fail before any
// work, with the pinned status {code, 0}, for every tier and configuration.
// ---------------------------------------------------------------------------

const char* kDoc = R"({"a":{"b":1},"c":[2,3]})";
const char* kDescendantQuery = "$..b";

TEST(GovernanceEngineTest, PreExpiredDeadlineFailsAtOffsetZeroEverywhere)
{
    PaddedString padded(kDoc);
    EngineStatus expected{StatusCode::kDeadlineExceeded, 0};
    for (EngineOptions options : testing::engine_configurations()) {
        options.budget = expired_budget();
        DescendEngine engine(
            automaton::CompiledQuery::compile(kDescendantQuery), options);
        CountSink sink;
        EXPECT_EQ(engine.run(padded, sink), expected)
            << "descend[" << testing::describe(options) << "]";
        EXPECT_EQ(sink.count(), 0u);
    }

    DomEngine dom(query::Query::parse(kDescendantQuery), {}, expired_budget());
    CountSink dom_sink;
    EXPECT_EQ(dom.run(padded, dom_sink), expected) << "dom";

    SurferEngine surfer(automaton::CompiledQuery::compile(kDescendantQuery),
                        {}, expired_budget());
    CountSink surfer_sink;
    EXPECT_EQ(surfer.run(padded, surfer_sink), expected) << "surfer";

    SkiEngine ski(query::Query::parse("$.a"), simd::default_level(), {},
                  expired_budget());
    CountSink ski_sink;
    EXPECT_EQ(ski.run(padded, ski_sink), expected) << "jsonski";

    for (simd::Level level :
         {simd::Level::scalar, simd::Level::avx2, simd::Level::avx512}) {
        EngineOptions options;
        options.simd = level;
        options.budget = expired_budget();
        // One product automaton, and the same set forced into groups.
        for (int cap : {1 << 15, 4}) {
            multi::ProductDescendEngine fused(
                multi::MultiQuery::compile(
                    std::vector<std::string>{"$..b", "$.*"}),
                options, cap);
            multi::CollectingMultiSink sink(2);
            EXPECT_EQ(fused.run(padded, sink), expected)
                << "multi[" << simd::level_name(level) << "] groups "
                << fused.groups().size();
        }
    }
}

TEST(GovernanceEngineTest, PreCancelledFailsAtOffsetZeroEverywhere)
{
    PaddedString padded(kDoc);
    CancelToken token;
    token.cancel();
    RunBudget cancelled = RunBudget::with_cancel(&token);
    EngineStatus expected{StatusCode::kCancelled, 0};
    for (EngineOptions options : testing::engine_configurations()) {
        options.budget = cancelled;
        DescendEngine engine(
            automaton::CompiledQuery::compile(kDescendantQuery), options);
        CountSink sink;
        EXPECT_EQ(engine.run(padded, sink), expected)
            << "descend[" << testing::describe(options) << "]";
    }
    DomEngine dom(query::Query::parse(kDescendantQuery), {}, cancelled);
    CountSink dom_sink;
    EXPECT_EQ(dom.run(padded, dom_sink), expected) << "dom";
    SurferEngine surfer(automaton::CompiledQuery::compile(kDescendantQuery),
                        {}, cancelled);
    CountSink surfer_sink;
    EXPECT_EQ(surfer.run(padded, surfer_sink), expected) << "surfer";
    SkiEngine ski(query::Query::parse("$.a"), simd::default_level(), {},
                  cancelled);
    CountSink ski_sink;
    EXPECT_EQ(ski.run(padded, ski_sink), expected) << "jsonski";
}

TEST(GovernanceEngineTest, InactiveBudgetMatchesUngovernedRun)
{
    // The default EngineOptions carries an inactive budget: results must be
    // identical to the pre-governance behaviour, match-for-match.
    std::string doc = testing::oracle_offsets(kDescendantQuery, kDoc).empty()
                          ? std::string(kDoc)
                          : std::string(kDoc);
    std::vector<std::size_t> expected =
        testing::oracle_offsets(kDescendantQuery, doc);
    ASSERT_FALSE(expected.empty());
    testing::expect_all_engines_agree(kDescendantQuery, doc);
}

/** A sink that fires the cancel token on the first delivered match. */
struct CancellingSink final : MatchSink {
    explicit CancellingSink(CancelToken& token) : token_(&token) {}
    void on_match(std::size_t) override
    {
        ++matches;
        token_->cancel();
    }
    CancelToken* token_;
    std::size_t matches = 0;
};

TEST(GovernanceEngineTest, MidRunCancellationStopsTheRun)
{
    // An early match in a long document: the sink cancels on delivery and
    // the engine must stop at a subsequent batch refill with kCancelled.
    // Deterministic: the cancel happens on this thread, before the poll.
    std::string doc = "{\"b\":1";
    for (int i = 0; i < 200; ++i) {
        doc += ",\"k" + std::to_string(i) + "\":\"" +
               std::string(40, 'x') + "\"";
    }
    doc += "}";
    PaddedString padded(doc);
    for (EngineOptions options : testing::engine_configurations()) {
        CancelToken token;
        options.budget = RunBudget::with_cancel(&token);
        DescendEngine engine(automaton::CompiledQuery::compile("$..b"),
                             options);
        CancellingSink sink(token);
        EngineStatus status = engine.run(padded, sink);
        EXPECT_EQ(status.code, StatusCode::kCancelled)
            << "descend[" << testing::describe(options)
            << "] got " << to_string(status);
        EXPECT_EQ(sink.matches, 1u)
            << "descend[" << testing::describe(options) << "]";
    }
}

// ---------------------------------------------------------------------------
// Stream governance: deterministic across thread counts.
// ---------------------------------------------------------------------------

std::string ndjson_stream(std::size_t records)
{
    std::string text;
    for (std::size_t i = 0; i < records; ++i) {
        text += "{\"id\":" + std::to_string(i) + "}\n";
    }
    return text;
}

/** The stream executors the governance cases run on: the single-query
 *  executor, and the multi-query executor over three sets built around the
 *  case's query — the query alone; the query plus a filter query whose
 *  gate runs on every record and admits nothing; the query plus a query
 *  that never matches, forced into two product groups by the state cap.
 *  All share one scheduling policy and the same matches, so each case must
 *  come out identical on every one of them. */
enum class Executor { kSingle, kMultiProduct, kMultiFilter, kMultiGrouped };

constexpr Executor kExecutors[] = {Executor::kSingle, Executor::kMultiProduct,
                                   Executor::kMultiFilter,
                                   Executor::kMultiGrouped};

std::string executor_name(Executor executor)
{
    switch (executor) {
        case Executor::kSingle: return "single";
        case Executor::kMultiProduct: return "multi-product";
        case Executor::kMultiFilter: return "multi-filter";
        case Executor::kMultiGrouped: return "multi-grouped";
    }
    return "?";
}

/** What one stream run delivered. */
struct StreamRun {
    stream::StreamResult result;
    std::vector<stream::CollectingStreamSink::RecordError> errors;
    std::size_t delivered = 0;  ///< matches the sink received
};

/** The multi-query engine @p executor runs for @p query (see Executor). */
multi::ProductDescendEngine multi_engine(Executor executor,
                                         const std::string& query,
                                         const EngineOptions& options)
{
    std::vector<std::string> queries{query};
    int max_states = 1 << 15;
    if (executor == Executor::kMultiFilter) {
        // The root's members are the id numbers: candidates a field chain
        // never resolves on.
        queries.push_back("$[?(@.id)]");
    } else if (executor == Executor::kMultiGrouped) {
        queries.push_back("$.absent.x");
        max_states = 4;  // fits each query alone, not the pair
    }
    multi::ProductDescendEngine engine(multi::MultiQuery::compile(queries),
                                       options, max_states);
    EXPECT_EQ(engine.groups().size(),
              executor == Executor::kMultiGrouped ? 2u : 1u);
    return engine;
}

StreamRun run_stream(Executor executor, const std::string& query,
                     const stream::StreamOptions& options,
                     const PaddedString& input)
{
    StreamRun run;
    if (executor == Executor::kSingle) {
        stream::StreamExecutor single =
            stream::StreamExecutor::for_query(query, options);
        stream::CollectingStreamSink sink;
        run.result = single.run(input, sink);
        run.errors = sink.errors();
        run.delivered = sink.matches().size();
        return run;
    }
    multi::ProductDescendEngine engine =
        multi_engine(executor, query, options.engine);
    multi::MultiStreamExecutor fused(std::move(engine), options);
    multi::CollectingMultiStreamSink sink;
    run.result = fused.run(input, sink);
    run.errors = sink.errors();
    run.delivered = sink.matches().size();
    return run;
}

TEST(GovernanceStreamTest, PreExpiredStreamBudgetIsIdenticalAtEveryThreadCount)
{
    std::string text = ndjson_stream(8);
    PaddedString padded(text);
    for (Executor executor : kExecutors) {
        for (std::size_t threads :
             {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
            stream::StreamOptions options;
            options.threads = threads;
            options.records_per_batch = 2;
            options.stream_budget = expired_budget();
            SCOPED_TRACE(executor_name(executor) +
                         " threads=" + std::to_string(threads));
            StreamRun run = run_stream(executor, "$..id", options, padded);
            const stream::StreamResult& result = run.result;
            EXPECT_TRUE(result.budget_stopped);
            EXPECT_EQ(result.records, 8u);
            EXPECT_EQ(result.matches, 0u);
            EXPECT_EQ(result.failed_records, 1u);
            EXPECT_EQ(result.first_error_record, 0u);
            EXPECT_EQ(result.first_error,
                      (EngineStatus{StatusCode::kDeadlineExceeded, 0}));
            EXPECT_EQ(result.first_error_span_begin, 0u);
            ASSERT_EQ(run.errors.size(), 1u);
            EXPECT_EQ(run.errors.front().record, 0u);
            EXPECT_EQ(run.errors.front().status,
                      (EngineStatus{StatusCode::kDeadlineExceeded, 0}));
            EXPECT_EQ(run.delivered, 0u);
            EXPECT_EQ(result.error_tally[static_cast<std::size_t>(
                          StatusCode::kDeadlineExceeded)],
                      1u);
        }
    }
}

TEST(GovernanceStreamTest, PreCancelledStreamBudgetSynthesizesCancelled)
{
    std::string text = ndjson_stream(5);
    PaddedString padded(text);
    CancelToken token;
    token.cancel();
    for (Executor executor : kExecutors) {
        for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
            stream::StreamOptions options;
            options.threads = threads;
            options.stream_budget = RunBudget::with_cancel(&token);
            SCOPED_TRACE(executor_name(executor) +
                         " threads=" + std::to_string(threads));
            stream::StreamResult result =
                run_stream(executor, "$..id", options, padded).result;
            EXPECT_TRUE(result.budget_stopped);
            EXPECT_EQ(result.first_error_record, 0u);
            EXPECT_EQ(result.first_error,
                      (EngineStatus{StatusCode::kCancelled, 0}));
        }
    }
}

TEST(GovernanceStreamTest, GenerousBudgetsLeaveTheStreamUntouched)
{
    std::string text = ndjson_stream(6);
    PaddedString padded(text);
    stream::StreamOptions options;
    options.threads = 2;
    options.stream_budget = RunBudget::within_ms(1000000);
    options.record_budget_ms = 1000000;
    for (Executor executor : kExecutors) {
        SCOPED_TRACE(executor_name(executor));
        StreamRun run = run_stream(executor, "$..id", options, padded);
        EXPECT_FALSE(run.result.budget_stopped);
        EXPECT_TRUE(run.result.ok());
        EXPECT_EQ(run.result.records, 6u);
        EXPECT_EQ(run.result.matches, 6u);
        EXPECT_EQ(run.delivered, 6u);
        EXPECT_EQ(run.result.retried_records, 0u);
    }
}

TEST(GovernanceStreamTest, RetryScalarReRunsFailedRecordsOnScalarTier)
{
    // Record 2 is malformed: under kRetryScalar it is re-run on the scalar
    // tier, the scalar verdict (the same failure) is reported, and the
    // stream otherwise behaves like kSkipRecord. The tiers agree on the
    // failure, so no divergence is tallied.
    std::string text = "{\"id\":0}\n{\"id\":1}\n{\"id\":\n{\"id\":3}\n";
    PaddedString padded(text);
    DescendEngine scalar_reference = [] {
        EngineOptions scalar;
        scalar.simd = simd::Level::scalar;
        return DescendEngine(automaton::CompiledQuery::compile("$..id"),
                             scalar);
    }();
    PaddedString bad_record("{\"id\":");
    EngineStatus scalar_verdict =
        scalar_reference.offsets_checked(bad_record).status;
    ASSERT_FALSE(scalar_verdict.ok());

    for (Executor executor : kExecutors) {
        for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
            stream::StreamOptions options;
            options.threads = threads;
            options.policy = stream::ErrorPolicy::kRetryScalar;
            SCOPED_TRACE(executor_name(executor) +
                         " threads=" + std::to_string(threads));
            StreamRun run = run_stream(executor, "$..id", options, padded);
            const stream::StreamResult& result = run.result;
            EXPECT_EQ(result.records, 4u);
            EXPECT_EQ(result.matches, 3u);
            EXPECT_EQ(run.delivered, 3u);
            EXPECT_EQ(result.failed_records, 1u);
            EXPECT_EQ(result.retried_records, 1u);
            EXPECT_EQ(result.tier_divergences, 0u);
            ASSERT_EQ(run.errors.size(), 1u);
            EXPECT_EQ(run.errors.front().record, 2u);
            EXPECT_EQ(run.errors.front().status, scalar_verdict);
        }
    }
}

TEST(GovernanceStreamTest, GovernanceFailuresAreNeverRetried)
{
    std::string text = ndjson_stream(4);
    PaddedString padded(text);
    stream::StreamOptions options;
    options.policy = stream::ErrorPolicy::kRetryScalar;
    options.stream_budget = expired_budget();
    for (Executor executor : kExecutors) {
        SCOPED_TRACE(executor_name(executor));
        stream::StreamResult result =
            run_stream(executor, "$..id", options, padded).result;
        EXPECT_TRUE(result.budget_stopped);
        EXPECT_EQ(result.retried_records, 0u);
        EXPECT_EQ(result.tier_divergences, 0u);
    }
}

TEST(GovernanceStreamTest, AbsoluteErrorPositionIsSpanBeginPlusOffset)
{
    // The second record is structurally damaged; the stream result must
    // report its span start so span_begin + intra-record offset gives the
    // absolute stream position. The expected status comes from a
    // sequential run of the executor's engine over the isolated record —
    // the stream adds only the span-begin translation. (Where the damage
    // is detected depends on the engine's skips: `$..id` alone head-skips,
    // the filter set walks the record structurally.)
    std::string first = "{\"id\":0}";
    std::string bad = "{\"id\":]}";
    std::string text = first + "\n" + bad + "\n{\"id\":2}\n";
    PaddedString padded(text);
    PaddedString bad_copy(bad);

    for (Executor executor : kExecutors) {
        SCOPED_TRACE(executor_name(executor));
        EngineStatus reference;
        if (executor == Executor::kSingle) {
            reference =
                DescendEngine::for_query("$..id").offsets_checked(bad_copy).status;
        } else {
            multi::CollectingMultiSink sink(2);
            reference = multi_engine(executor, "$..id", {}).run(bad_copy, sink);
        }
        ASSERT_FALSE(reference.ok());
        stream::StreamResult result =
            run_stream(executor, "$..id", {}, padded).result;
        ASSERT_EQ(result.failed_records, 1u);
        EXPECT_EQ(result.first_error_record, 1u);
        EXPECT_EQ(result.first_error, reference);
        EXPECT_EQ(result.first_error_span_begin, first.size() + 1);
        EXPECT_EQ(result.first_error_span_begin + result.first_error.offset,
                  first.size() + 1 + reference.offset);
    }
}

// ---------------------------------------------------------------------------
// Exact limit boundaries: each EngineLimits knob at its boundary value must
// pass, and one past it must fail with the pinned {code, offset} — across
// the DOM oracle, the surfer, JSONSki and every descend configuration.
// ---------------------------------------------------------------------------

void expect_status_everywhere(const std::string& query, EngineLimits limits,
                              const PaddedString& padded,
                              EngineStatus expected, bool exempt_head_skip)
{
    auto compiled = automaton::CompiledQuery::compile(query);
    DomEngine dom(query::Query::parse(query), limits);
    CountSink dom_sink;
    EXPECT_EQ(dom.run(padded, dom_sink), expected) << "dom, query " << query;

    SurferEngine surfer(compiled, limits);
    CountSink surfer_sink;
    EXPECT_EQ(surfer.run(padded, surfer_sink), expected)
        << "surfer, query " << query;

    for (EngineOptions options : testing::engine_configurations()) {
        bool head_skip_active =
            options.head_skipping && compiled.head_skip_label().has_value();
        if (exempt_head_skip && head_skip_active) {
            continue;  // head-skip depth is subdocument-relative (DESIGN.md)
        }
        options.limits = limits;
        DescendEngine engine(compiled, options);
        CountSink sink;
        EXPECT_EQ(engine.run(padded, sink), expected)
            << "descend[" << testing::describe(options) << "], query "
            << query;
    }
}

TEST(LimitBoundaryTest, DocumentSizeExactlyAtLimitPasses)
{
    std::string doc = kDoc;
    PaddedString padded(doc);
    EngineLimits at;
    at.max_document_size = doc.size();
    expect_status_everywhere("$.*", at, padded, EngineStatus{}, false);

    EngineLimits over;
    over.max_document_size = doc.size() - 1;
    expect_status_everywhere(
        "$.*", over, padded,
        EngineStatus{StatusCode::kSizeLimit, doc.size() - 1}, false);

    // JSONSki shares the preflight.
    SkiEngine at_ski(query::Query::parse("$.a"), simd::default_level(), at);
    CountSink s1;
    EXPECT_EQ(at_ski.run(padded, s1), EngineStatus{});
    SkiEngine over_ski(query::Query::parse("$.a"), simd::default_level(), over);
    CountSink s2;
    EXPECT_EQ(over_ski.run(padded, s2),
              (EngineStatus{StatusCode::kSizeLimit, doc.size() - 1}));
}

TEST(LimitBoundaryTest, DepthExactlyAtLimitPasses)
{
    // kDoc nests exactly two levels; the first depth-2 opener is the '{'
    // of {"b":1} at offset 5.
    PaddedString padded(kDoc);
    EngineLimits at;
    at.max_depth = 2;
    expect_status_everywhere("$.*", at, padded, EngineStatus{}, true);

    EngineLimits over;
    over.max_depth = 1;
    expect_status_everywhere("$.*", over, padded,
                             EngineStatus{StatusCode::kDepthLimit, 5}, true);

    SkiEngine at_ski(query::Query::parse("$.a"), simd::default_level(), at);
    CountSink s1;
    EXPECT_EQ(at_ski.run(padded, s1), EngineStatus{});
    SkiEngine over_ski(query::Query::parse("$.a"), simd::default_level(), over);
    CountSink s2;
    EXPECT_EQ(over_ski.run(padded, s2),
              (EngineStatus{StatusCode::kDepthLimit, 5}));
}

TEST(LimitBoundaryTest, MatchCountBoundaries)
{
    PaddedString padded(kDoc);
    // $.* matches the values of "a" (offset 5) and "c" (offset 17).
    ASSERT_EQ(testing::oracle_offsets("$.*", kDoc),
              (std::vector<std::size_t>{5, 17}));

    EngineLimits two;
    two.max_match_count = 2;
    expect_status_everywhere("$.*", two, padded, EngineStatus{}, false);

    EngineLimits one;
    one.max_match_count = 1;
    expect_status_everywhere("$.*", one, padded,
                             EngineStatus{StatusCode::kMatchLimit, 17}, false);

    EngineLimits zero;
    zero.max_match_count = 0;
    expect_status_everywhere("$.*", zero, padded,
                             EngineStatus{StatusCode::kMatchLimit, 5}, false);

    // Descendant query with a single match: boundary at exactly one.
    ASSERT_EQ(testing::oracle_offsets("$..b", kDoc),
              (std::vector<std::size_t>{10}));
    EngineLimits single;
    single.max_match_count = 1;
    expect_status_everywhere("$..b", single, padded, EngineStatus{}, false);
    EngineLimits none;
    none.max_match_count = 0;
    expect_status_everywhere("$..b", none, padded,
                             EngineStatus{StatusCode::kMatchLimit, 10}, false);
}

}  // namespace
}  // namespace descend
