/**
 * @file
 * descend-serve tests: the wire protocol's incremental decoder (round
 * trips, chunked and pipelined feeds, every malformed-frame class as a
 * structured status), the compiled-automaton cache (hit/miss/eviction,
 * limit-keyed entries, eviction safety under outstanding references), the
 * dispatcher (all three request modes against direct engine runs, tenant
 * governance that can only tighten, deterministic cancellation), and one
 * socket-level happy path against a live Server.
 *
 * Determinism discipline: governance tests use pre-cancelled tokens or
 * already-expired deadlines, never wall-clock races.
 */
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "descend/descend.h"
#include "descend/engine/scratch.h"
#include "descend/serve/dispatch.h"
#include "descend/serve/protocol.h"
#include "descend/serve/query_cache.h"
#include "descend/serve/server.h"
#include "descend/simd/dispatch.h"
#include "descend/util/budget.h"

namespace descend::serve {
namespace {

Request make_request(std::string query, std::string body,
                     RequestMode mode = RequestMode::kSingle,
                     std::uint32_t flags = kWantOffsets)
{
    Request request;
    request.mode = mode;
    request.flags = flags;
    request.query = std::move(query);
    request.body = std::move(body);
    return request;
}

/** Feeds the whole buffer in one call. */
FrameReader::State feed_all(FrameReader& reader,
                            const std::vector<std::uint8_t>& bytes)
{
    return reader.feed(bytes.data(), bytes.size());
}

// ---------------------------------------------------------------------------
// Protocol: encode/decode round trips.
// ---------------------------------------------------------------------------

TEST(ServeProtocolTest, RequestRoundTripPreservesEveryField)
{
    Request original = make_request("$..a.b", "{\"a\": {\"b\": 1}}");
    original.mode = RequestMode::kNdjson;
    original.flags = kWantOffsets | kWantStats;
    original.deadline_ms = 1234;
    original.max_depth = 7;
    original.max_matches = 99;

    FrameReader reader;
    ASSERT_EQ(feed_all(reader, encode_request(original)),
              FrameReader::State::kReady);
    Request decoded = reader.take_request();
    EXPECT_EQ(decoded.mode, original.mode);
    EXPECT_EQ(decoded.flags, original.flags);
    EXPECT_EQ(decoded.deadline_ms, original.deadline_ms);
    EXPECT_EQ(decoded.max_depth, original.max_depth);
    EXPECT_EQ(decoded.max_matches, original.max_matches);
    EXPECT_EQ(decoded.query, original.query);
    EXPECT_EQ(decoded.body, original.body);
    EXPECT_EQ(reader.state(), FrameReader::State::kNeedMore);
}

TEST(ServeProtocolTest, EmptyQueryAndBodyRoundTrip)
{
    FrameReader reader;
    ASSERT_EQ(feed_all(reader, encode_request(make_request("", ""))),
              FrameReader::State::kReady);
    Request decoded = reader.take_request();
    EXPECT_TRUE(decoded.query.empty());
    EXPECT_TRUE(decoded.body.empty());
}

TEST(ServeProtocolTest, ResponseRoundTripPreservesEveryField)
{
    Response original;
    original.serve_status = ServeStatus::kOk;
    original.engine_status = {StatusCode::kMatchLimit, 42};
    original.flags = kCacheHit;
    original.match_count = 3;
    original.offsets = {5, 17, 29};
    original.stats_json = "{\"matches\": 3}";

    std::vector<std::uint8_t> wire = encode_response(original);
    Response decoded;
    std::size_t consumed = 0;
    ASSERT_TRUE(decode_response(wire.data(), wire.size(), decoded, consumed));
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(decoded.serve_status, original.serve_status);
    EXPECT_EQ(decoded.engine_status.code, original.engine_status.code);
    EXPECT_EQ(decoded.engine_status.offset, original.engine_status.offset);
    EXPECT_TRUE(decoded.cache_hit());
    EXPECT_EQ(decoded.match_count, original.match_count);
    EXPECT_EQ(decoded.offsets, original.offsets);
    EXPECT_EQ(decoded.stats_json, original.stats_json);
}

TEST(ServeProtocolTest, PartialResponseDoesNotDecode)
{
    Response original;
    original.offsets = {1, 2, 3};
    std::vector<std::uint8_t> wire = encode_response(original);
    Response decoded;
    std::size_t consumed = 7;
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        EXPECT_FALSE(decode_response(wire.data(), cut, decoded, consumed));
    }
}

// ---------------------------------------------------------------------------
// Protocol: chunked, pipelined, truncated, malformed.
// ---------------------------------------------------------------------------

TEST(ServeProtocolTest, OneByteAtATimeFeedReachesReady)
{
    Request original = make_request("$..x", "{\"x\": true}");
    std::vector<std::uint8_t> wire = encode_request(original);
    FrameReader reader;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        ASSERT_EQ(reader.feed(&wire[i], 1), FrameReader::State::kNeedMore)
            << "byte " << i;
    }
    ASSERT_EQ(reader.feed(&wire[wire.size() - 1], 1),
              FrameReader::State::kReady);
    EXPECT_EQ(reader.take_request().query, "$..x");
}

TEST(ServeProtocolTest, PipelinedFramesDecodeBackToBack)
{
    std::vector<std::uint8_t> wire = encode_request(make_request("$..a", "1"));
    std::vector<std::uint8_t> second =
        encode_request(make_request("$..b", "2"));
    wire.insert(wire.end(), second.begin(), second.end());

    FrameReader reader;
    ASSERT_EQ(feed_all(reader, wire), FrameReader::State::kReady);
    EXPECT_EQ(reader.take_request().query, "$..a");
    // take_request() re-parses the leftover bytes: the second frame must be
    // ready with no further feed.
    ASSERT_EQ(reader.state(), FrameReader::State::kReady);
    EXPECT_EQ(reader.take_request().query, "$..b");
    EXPECT_EQ(reader.state(), FrameReader::State::kNeedMore);
}

TEST(ServeProtocolTest, TruncatedFrameIsAStructuredError)
{
    std::vector<std::uint8_t> wire = encode_request(make_request("$..a", "{}"));
    FrameReader reader;
    ASSERT_EQ(reader.feed(wire.data(), wire.size() - 1),
              FrameReader::State::kNeedMore);
    ASSERT_EQ(reader.finish(), FrameReader::State::kError);
    EXPECT_EQ(reader.error(), ServeStatus::kTruncatedFrame);
}

TEST(ServeProtocolTest, FinishBetweenFramesIsACleanNoop)
{
    FrameReader reader;
    EXPECT_EQ(reader.finish(), FrameReader::State::kNeedMore);
    std::vector<std::uint8_t> wire = encode_request(make_request("$..a", ""));
    ASSERT_EQ(feed_all(reader, wire), FrameReader::State::kReady);
    reader.take_request();
    EXPECT_EQ(reader.finish(), FrameReader::State::kNeedMore);
}

TEST(ServeProtocolTest, GarbageFailsFastOnBadMagic)
{
    FrameReader reader;
    const std::uint8_t garbage[2] = {0xde, 0xad};
    // Bad magic is detectable from the first bytes — no need to buffer a
    // whole header before rejecting.
    ASSERT_EQ(reader.feed(garbage, 2), FrameReader::State::kError);
    EXPECT_EQ(reader.error(), ServeStatus::kBadMagic);
}

struct HeaderMutation {
    std::size_t offset;
    std::uint8_t value;
    ServeStatus expected;
};

TEST(ServeProtocolTest, EveryHeaderFieldViolationHasItsStatus)
{
    const HeaderMutation mutations[] = {
        {4, 0xff, ServeStatus::kBadVersion},   // version
        {6, 0x77, ServeStatus::kBadMode},      // mode
        {32, 0x01, ServeStatus::kBadReserved}, // reserved
    };
    for (const HeaderMutation& mutation : mutations) {
        std::vector<std::uint8_t> wire =
            encode_request(make_request("$..a", "{}"));
        wire[mutation.offset] = mutation.value;
        FrameReader reader;
        ASSERT_EQ(feed_all(reader, wire), FrameReader::State::kError)
            << "offset " << mutation.offset;
        EXPECT_EQ(reader.error(), mutation.expected)
            << "offset " << mutation.offset;
    }
}

TEST(ServeProtocolTest, OversizedLengthsRejectedFromHeaderAlone)
{
    FrameLimits limits;
    limits.max_query_bytes = 8;
    limits.max_body_bytes = 16;

    // query_len = 9 > 8: the reader must fail on the 44 header bytes,
    // before any payload arrives.
    std::vector<std::uint8_t> wire =
        encode_request(make_request("123456789", "{}"));
    FrameReader reader(limits);
    ASSERT_EQ(reader.feed(wire.data(), kRequestHeaderSize),
              FrameReader::State::kError);
    EXPECT_EQ(reader.error(), ServeStatus::kQueryTooLarge);

    std::vector<std::uint8_t> big_body =
        encode_request(make_request("$..a", std::string(17, 'x')));
    FrameReader body_reader(limits);
    ASSERT_EQ(body_reader.feed(big_body.data(), kRequestHeaderSize),
              FrameReader::State::kError);
    EXPECT_EQ(body_reader.error(), ServeStatus::kBodyTooLarge);
}

TEST(ServeProtocolTest, ErrorsAreStickyAcrossFurtherValidBytes)
{
    FrameReader reader;
    const std::uint8_t garbage[4] = {1, 2, 3, 4};
    ASSERT_EQ(reader.feed(garbage, 4), FrameReader::State::kError);
    std::vector<std::uint8_t> valid = encode_request(make_request("$..a", ""));
    EXPECT_EQ(feed_all(reader, valid), FrameReader::State::kError);
    EXPECT_EQ(reader.error(), ServeStatus::kBadMagic);
}

TEST(ServeProtocolTest, SplitQuerySetSkipsBlanksAndToleratesCr)
{
    std::vector<std::string> queries =
        split_query_set("$..a\r\n\n$..b\n$..c\n");
    ASSERT_EQ(queries.size(), 3u);
    EXPECT_EQ(queries[0], "$..a");
    EXPECT_EQ(queries[1], "$..b");
    EXPECT_EQ(queries[2], "$..c");
}

// ---------------------------------------------------------------------------
// QueryCache.
// ---------------------------------------------------------------------------

TEST(QueryCacheTest, MissThenHitOnTheSameShape)
{
    QueryCache cache(8, 2);
    EngineOptions options;
    bool hit = true;
    CachedQueryPtr first =
        cache.lookup(RequestMode::kSingle, "$..a", options, hit);
    ASSERT_NE(first, nullptr);
    EXPECT_FALSE(hit);
    CachedQueryPtr second =
        cache.lookup(RequestMode::kSingle, "$..a", options, hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(first.get(), second.get());
    CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(QueryCacheTest, LimitsParticipateInTheKey)
{
    QueryCache cache(8, 1);
    EngineOptions options;
    bool hit = false;
    cache.lookup(RequestMode::kSingle, "$..a", options, hit);
    options.limits.max_depth = 3;
    cache.lookup(RequestMode::kSingle, "$..a", options, hit);
    // Same query, different limits: a distinct entry, not a wrongly-limited
    // shared one.
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(QueryCacheTest, ModeParticipatesInTheKey)
{
    QueryCache cache(8, 1);
    EngineOptions options;
    bool hit = false;
    CachedQueryPtr single =
        cache.lookup(RequestMode::kSingle, "$..a", options, hit);
    CachedQueryPtr multi =
        cache.lookup(RequestMode::kMulti, "$..a", options, hit);
    EXPECT_FALSE(hit);
    EXPECT_NE(single->engine, nullptr);
    EXPECT_EQ(single->multi_engine, nullptr);
    EXPECT_EQ(multi->engine, nullptr);
    EXPECT_NE(multi->multi_engine, nullptr);
}

TEST(QueryCacheTest, NdjsonSharesTheSingleQueryArtifact)
{
    QueryCache cache(8, 1);
    EngineOptions options;
    bool hit = false;
    cache.lookup(RequestMode::kSingle, "$..a", options, hit);
    cache.lookup(RequestMode::kNdjson, "$..a", options, hit);
    EXPECT_TRUE(hit);
}

TEST(QueryCacheTest, SpellingVariantsShareOneEntry)
{
    QueryCache cache(8, 1);
    EngineOptions options;
    bool hit = false;
    cache.lookup(RequestMode::kSingle, "$.a[1:3].b", options, hit);
    cache.lookup(RequestMode::kSingle, "$['a'][1:3]['b']", options, hit);
    EXPECT_TRUE(hit);
    cache.lookup(RequestMode::kSingle, "$[\"a\"][1:3].b", options, hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.stats().entries, 1u);
    // Unparseable text falls back to the raw string: distinct garbage is
    // distinct keys, and the lookup still reports the QueryError.
    EXPECT_THROW(
        cache.lookup(RequestMode::kSingle, "$.[broken", options, hit),
        QueryError);
}

TEST(QueryCacheTest, LruEvictionKeepsOutstandingReferencesAlive)
{
    QueryCache cache(2, 1);
    EngineOptions options;
    bool hit = false;
    CachedQueryPtr oldest =
        cache.lookup(RequestMode::kSingle, "$..a", options, hit);
    cache.lookup(RequestMode::kSingle, "$..b", options, hit);
    cache.lookup(RequestMode::kSingle, "$..c", options, hit);

    CacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);

    // "$..a" was evicted, but the outstanding reference still runs.
    ASSERT_NE(oldest->engine, nullptr);
    PaddedString doc("{\"a\": 1}");
    EXPECT_EQ(oldest->engine->count(doc), 1u);

    // Re-looking it up is a miss again.
    cache.lookup(RequestMode::kSingle, "$..a", options, hit);
    EXPECT_FALSE(hit);
}

TEST(QueryCacheTest, TouchRefreshesLruOrder)
{
    QueryCache cache(2, 1);
    EngineOptions options;
    bool hit = false;
    cache.lookup(RequestMode::kSingle, "$..a", options, hit);
    cache.lookup(RequestMode::kSingle, "$..b", options, hit);
    cache.lookup(RequestMode::kSingle, "$..a", options, hit);  // touch
    cache.lookup(RequestMode::kSingle, "$..c", options, hit);  // evicts $..b
    cache.lookup(RequestMode::kSingle, "$..a", options, hit);
    EXPECT_TRUE(hit) << "touched entry must survive the eviction";
    cache.lookup(RequestMode::kSingle, "$..b", options, hit);
    EXPECT_FALSE(hit) << "untouched entry must be the one evicted";
}

TEST(QueryCacheTest, FailedCompilationsThrowAndAreNeverCached)
{
    QueryCache cache(8, 1);
    EngineOptions options;
    bool hit = false;
    EXPECT_THROW(
        cache.lookup(RequestMode::kSingle, "$.[broken", options, hit),
        QueryError);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_THROW(
        cache.lookup(RequestMode::kSingle, "$.[broken", options, hit),
        QueryError);
}

TEST(QueryCacheTest, ClearDropsEntriesButNotReferences)
{
    QueryCache cache(8, 2);
    EngineOptions options;
    bool hit = false;
    CachedQueryPtr held =
        cache.lookup(RequestMode::kSingle, "$..a", options, hit);
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    PaddedString doc("{\"a\": 1}");
    EXPECT_EQ(held->engine->count(doc), 1u);
}

// ---------------------------------------------------------------------------
// Dispatcher: the one dispatch path, against direct engine runs.
// ---------------------------------------------------------------------------

class DispatcherTest : public ::testing::Test {
protected:
    DispatcherTest() : cache_(16, 2), dispatcher_(ServePolicy{}, cache_) {}

    Response handle(const Request& request,
                    const CancelToken* drain = nullptr)
    {
        return dispatcher_.handle(request, scratch_, drain);
    }

    QueryCache cache_;
    Dispatcher dispatcher_;
    RunScratch scratch_;
};

TEST_F(DispatcherTest, SingleModeMatchesADirectEngineRun)
{
    const std::string doc =
        "{\"a\": {\"b\": 1, \"c\": {\"b\": 2}}, \"b\": 3}";
    PaddedString padded(doc);
    OffsetsResult expected =
        DescendEngine::for_query("$..b").offsets_checked(padded);
    ASSERT_TRUE(expected.ok());

    Response response = handle(make_request("$..b", doc));
    ASSERT_EQ(response.serve_status, ServeStatus::kOk);
    ASSERT_TRUE(response.engine_status.ok());
    EXPECT_EQ(response.match_count, expected.offsets.size());
    ASSERT_EQ(response.offsets.size(), expected.offsets.size());
    EXPECT_TRUE(std::equal(response.offsets.begin(), response.offsets.end(),
                           expected.offsets.begin()));
}

TEST_F(DispatcherTest, CountOnlyRequestsOmitOffsets)
{
    Response response =
        handle(make_request("$..b", "{\"b\": 1}", RequestMode::kSingle, 0));
    EXPECT_TRUE(response.ok());
    EXPECT_EQ(response.match_count, 1u);
    EXPECT_TRUE(response.offsets.empty());
    EXPECT_TRUE(response.stats_json.empty());
}

TEST_F(DispatcherTest, StatsFlagReturnsAnObsReport)
{
    Response response = handle(make_request("$..b", "{\"b\": 1}",
                                            RequestMode::kSingle,
                                            kWantStats));
    ASSERT_TRUE(response.ok());
    ASSERT_FALSE(response.stats_json.empty());
    EXPECT_EQ(response.stats_json.front(), '{');
    EXPECT_NE(response.stats_json.find("\"engine\""), std::string::npos);
}

TEST_F(DispatcherTest, CacheHitFlagsAndIdenticalResults)
{
    const std::string doc = "{\"a\": {\"b\": [1, 2]}}";
    Request request = make_request("$..b", doc);
    Response cold = handle(request);
    Response warm = handle(request);
    EXPECT_FALSE(cold.cache_hit());
    EXPECT_TRUE(warm.cache_hit());
    EXPECT_EQ(cold.match_count, warm.match_count);
    EXPECT_EQ(cold.offsets, warm.offsets);
}

TEST_F(DispatcherTest, MultiModeInterleavesQueryOffsetPairs)
{
    const std::string doc =
        "{\"a\": {\"x\": 1}, \"b\": {\"x\": 2}, \"x\": 3}";
    PaddedString padded(doc);
    std::vector<std::string> queries = {"$..x", "$.b.x"};
    std::vector<std::uint64_t> expected;
    std::size_t total = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        OffsetsResult result =
            DescendEngine::for_query(queries[q]).offsets_checked(padded);
        total += result.offsets.size();
        for (std::size_t offset : result.offsets) {
            expected.push_back(q);
            expected.push_back(offset);
        }
    }

    Response response =
        handle(make_request("$..x\n$.b.x", doc, RequestMode::kMulti));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.match_count, total);
    EXPECT_EQ(response.offsets, expected);
}

TEST_F(DispatcherTest, NdjsonModeReportsAbsoluteOffsets)
{
    const std::string body =
        "{\"a\": {\"b\": 1}}\n{\"c\": 2}\n{\"b\": [3, 4]}\n";
    PaddedString padded(body);
    stream::StreamExecutor executor = stream::StreamExecutor::for_query("$..b");
    std::vector<stream::RecordSpan> spans =
        stream::split_records(padded, simd::best_kernels());
    stream::CollectingStreamSink direct;
    stream::StreamResult direct_result =
        executor.run_records(padded, spans, direct);
    std::vector<std::uint64_t> expected;
    for (const auto& match : direct.matches()) {
        expected.push_back(spans[match.record].begin + match.offset);
    }
    ASSERT_FALSE(expected.empty());

    Response response =
        handle(make_request("$..b", body, RequestMode::kNdjson));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.match_count, direct_result.matches);
    EXPECT_EQ(response.offsets, expected);
}

TEST_F(DispatcherTest, NdjsonStreamErrorsSurfaceAtAbsolutePositions)
{
    // Record 1 (offset 10) is malformed at its byte 4 (the stray closer).
    const std::string body = "{\"a\": 1}\n\"xy\"}]\n";
    Response response =
        handle(make_request("$..a", body, RequestMode::kNdjson));
    EXPECT_EQ(response.serve_status, ServeStatus::kOk);
    EXPECT_FALSE(response.engine_status.ok());
    EXPECT_GE(response.engine_status.offset, 9u)
        << "error position must be absolute, not record-relative";
}

TEST_F(DispatcherTest, BadQueryYieldsStructuredStatusNotAThrow)
{
    Response response = handle(make_request("$.[oops", "{}"));
    EXPECT_EQ(response.serve_status, ServeStatus::kBadQuery);
    EXPECT_EQ(response.match_count, 0u);
}

TEST_F(DispatcherTest, RequestLimitsTightenTheServerDefaults)
{
    Request request = make_request("$..b", "{\"a\": {\"b\": 1}, \"b\": 2}");
    request.max_matches = 1;
    Response response = handle(request);
    EXPECT_EQ(response.serve_status, ServeStatus::kOk);
    EXPECT_EQ(response.engine_status.code, StatusCode::kMatchLimit);

    // $.* forces structural descent ($..b's head-skipping can bypass the
    // depth counter entirely), mirroring LimitBoundaryTest in
    // governance_test.cpp.
    Request deep = make_request("$.*", "{\"a\": {\"b\": {\"c\": 1}}}");
    deep.max_depth = 1;
    response = handle(deep);
    EXPECT_EQ(response.engine_status.code, StatusCode::kDepthLimit);
}

TEST(DispatcherPolicyTest, RequestsCannotLoosenServerLimits)
{
    QueryCache cache(4, 1);
    ServePolicy policy;
    policy.engine.limits.max_match_count = 1;
    Dispatcher dispatcher(policy, cache);
    RunScratch scratch;

    Request request = make_request("$..b", "{\"a\": {\"b\": 1}, \"b\": 2}");
    request.max_matches = 1000;  // above the server cap: ignored
    Response response = dispatcher.handle(request, scratch);
    EXPECT_EQ(response.engine_status.code, StatusCode::kMatchLimit);
}

TEST_F(DispatcherTest, DrainCancellationIsDeterministic)
{
    CancelToken cancelled;
    cancelled.cancel();
    Response response =
        handle(make_request("$..b", "{\"b\": 1}"), &cancelled);
    EXPECT_EQ(response.serve_status, ServeStatus::kOk);
    EXPECT_EQ(response.engine_status.code, StatusCode::kCancelled);
}

TEST_F(DispatcherTest, DrainCancellationCoversEveryMode)
{
    CancelToken cancelled;
    cancelled.cancel();
    Response multi = handle(
        make_request("$..a\n$..b", "{\"a\": 1}", RequestMode::kMulti),
        &cancelled);
    EXPECT_EQ(multi.engine_status.code, StatusCode::kCancelled);
    Response ndjson = handle(
        make_request("$..a", "{\"a\": 1}\n{\"a\": 2}\n", RequestMode::kNdjson),
        &cancelled);
    EXPECT_EQ(ndjson.engine_status.code, StatusCode::kCancelled);
}

TEST(DispatcherPolicyTest, DeadlineIsClampedToTheTenantCap)
{
    // A pre-expired *default* deadline cannot be faked with wall clocks, so
    // assert the clamp's observable effect instead: with a 0 default and no
    // cap, a request deadline of 0 must leave the budget inactive (the run
    // completes); with the drain token set, the same request is cancelled —
    // proving the budget is threaded even without a deadline.
    QueryCache cache(4, 1);
    Dispatcher dispatcher(ServePolicy{}, cache);
    RunScratch scratch;
    Request request = make_request("$..b", "{\"b\": 1}");
    Response response = dispatcher.handle(request, scratch);
    EXPECT_TRUE(response.engine_status.ok());

    CancelToken cancelled;
    cancelled.cancel();
    response = dispatcher.handle(request, scratch, &cancelled);
    EXPECT_EQ(response.engine_status.code, StatusCode::kCancelled);
}

TEST_F(DispatcherTest, ScratchReusesBuffersAcrossRequests)
{
    // Two requests through one scratch: the second must not see the first's
    // matches (reset semantics), and the document arena must have grown to
    // the larger body.
    Response first = handle(make_request("$..b", "{\"b\": [1, 2, 3]}"));
    EXPECT_EQ(first.match_count, 1u);
    Response second = handle(make_request("$..z", "{\"a\": 1}"));
    EXPECT_EQ(second.match_count, 0u);
    EXPECT_TRUE(second.offsets.empty());
    EXPECT_GE(scratch_.document.capacity(), std::strlen("{\"b\": [1, 2, 3]}"));
}

TEST(PaddedArenaTest, EmptyAssignOnFreshArenaStillProvidesPadding)
{
    // Regression: an empty body as the very first assign must still give
    // the classifiers a readable (space-filled) padding region — the
    // arena cannot skip allocation just because the logical size is zero.
    PaddedArena arena;
    PaddedView view = arena.assign(std::string_view{});
    ASSERT_NE(view.data(), nullptr);
    EXPECT_EQ(view.size(), 0u);
    for (std::size_t i = 0; i < PaddedString::kPadding; ++i) {
        EXPECT_EQ(view.data()[i], ' ');
    }
}

// ---------------------------------------------------------------------------
// Socket-level happy path against a live Server.
// ---------------------------------------------------------------------------

class LoopbackClient {
public:
    explicit LoopbackClient(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        connected_ = fd_ >= 0 &&
                     ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                               sizeof(addr)) == 0;
    }

    ~LoopbackClient()
    {
        if (fd_ >= 0) {
            ::close(fd_);
        }
    }

    bool connected() const noexcept { return connected_; }

    bool send_bytes(const std::vector<std::uint8_t>& bytes)
    {
        std::size_t sent = 0;
        while (sent < bytes.size()) {
            ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
            if (n <= 0) {
                return false;
            }
            sent += static_cast<std::size_t>(n);
        }
        return true;
    }

    bool read_response(Response& response)
    {
        std::uint8_t chunk[4096];
        for (;;) {
            std::size_t consumed = 0;
            if (!buffer_.empty() &&
                decode_response(buffer_.data(), buffer_.size(), response,
                                consumed)) {
                buffer_.erase(buffer_.begin(),
                              buffer_.begin() +
                                  static_cast<std::ptrdiff_t>(consumed));
                return true;
            }
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0) {
                return false;
            }
            buffer_.insert(buffer_.end(), chunk, chunk + n);
        }
    }

private:
    int fd_ = -1;
    bool connected_ = false;
    std::vector<std::uint8_t> buffer_;
};

TEST(ServeServerTest, TcpHappyPathEndToEnd)
{
    ServerConfig config;
    config.workers = 2;
    Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ASSERT_NE(server.tcp_port(), 0);

    {
        LoopbackClient client(server.tcp_port());
        ASSERT_TRUE(client.connected());
        Request request = make_request("$..b", "{\"a\": {\"b\": 42}}");
        ASSERT_TRUE(client.send_bytes(encode_request(request)));
        Response response;
        ASSERT_TRUE(client.read_response(response));
        EXPECT_TRUE(response.ok());
        EXPECT_EQ(response.match_count, 1u);

        // Pipelined second request on the same connection.
        ASSERT_TRUE(client.send_bytes(encode_request(request)));
        ASSERT_TRUE(client.read_response(response));
        EXPECT_TRUE(response.ok());
        EXPECT_TRUE(response.cache_hit());
    }

    server.shutdown();
    server.wait();
    EXPECT_FALSE(server.running());
    ServerCounters counters = server.counters();
    EXPECT_EQ(counters.connections_accepted, 1u);
    EXPECT_EQ(counters.requests_served, 2u);
    EXPECT_EQ(server.cache_stats().hits, 1u);
}

TEST(ServeServerTest, MalformedFrameGetsAStructuredResponseAndAClose)
{
    ServerConfig config;
    config.workers = 1;
    Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    LoopbackClient client(server.tcp_port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_bytes(std::vector<std::uint8_t>(32, 0xcc)));
    Response response;
    ASSERT_TRUE(client.read_response(response));
    EXPECT_EQ(response.serve_status, ServeStatus::kBadMagic);
    EXPECT_FALSE(client.read_response(response)) << "connection must close";

    server.shutdown();
    server.wait();
    EXPECT_EQ(server.counters().protocol_errors, 1u);
}

TEST(ServeServerTest, UnixSocketEndpointServes)
{
    std::string path = ::testing::TempDir() + "serve_test.sock";
    ::unlink(path.c_str());
    ServerConfig config;
    config.unix_path = path;
    config.workers = 1;
    Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    std::vector<std::uint8_t> wire =
        encode_request(make_request("$..a", "{\"a\": 7}"));
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    std::vector<std::uint8_t> buffer;
    std::uint8_t chunk[4096];
    Response response;
    std::size_t consumed = 0;
    for (;;) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        ASSERT_GT(n, 0);
        buffer.insert(buffer.end(), chunk, chunk + n);
        if (decode_response(buffer.data(), buffer.size(), response,
                            consumed)) {
            break;
        }
    }
    ::close(fd);
    EXPECT_TRUE(response.ok());
    EXPECT_EQ(response.match_count, 1u);

    server.shutdown();
    server.wait();
    ::unlink(path.c_str());
}

}  // namespace
}  // namespace descend::serve
