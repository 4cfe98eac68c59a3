/**
 * @file
 * Direct tests of the structural iterator (the multi-classifier pipeline's
 * stream abstraction): event sequences, peeking, toggling mid-block,
 * label backtracking, both skip flavours (including their batch-at-a-time
 * ring runs, against a bytewise model and the DOM oracle), stop/resume,
 * and padded-string plumbing — at every SIMD level.
 */
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "descend/engine/extract.h"
#include "descend/engine/structural_iterator.h"
#include "test_helpers.h"

namespace descend {
namespace {

using Kind = StructuralIterator::Kind;

std::string drain(StructuralIterator& iter)
{
    std::string events;
    while (true) {
        auto event = iter.next();
        if (event.kind == Kind::kNone) {
            return events;
        }
        events.push_back(static_cast<char>(event.byte));
    }
}

class IteratorTest : public ::testing::TestWithParam<simd::Level> {
protected:
    const simd::Kernels& kernels() const { return simd::kernels_for(GetParam()); }
};

TEST_P(IteratorTest, DefaultModeSkipsLeaves)
{
    PaddedString doc(R"({"a": [1, 2], "b": {"c": 3}})");
    StructuralIterator iter(doc, kernels());
    // Only braces/brackets by default: leaves are invisible.
    EXPECT_EQ(drain(iter), "{[]{}}");
}

TEST_P(IteratorTest, TogglesExtendTheEventSet)
{
    PaddedString doc(R"({"a": [1, 2]})");
    StructuralIterator iter(doc, kernels());
    iter.set_colons(true);
    iter.set_commas(true);
    EXPECT_EQ(drain(iter), "{:[,]}");
}

TEST_P(IteratorTest, InStringStructuralsAreInvisible)
{
    PaddedString doc(R"({"k": "a {[,:]} b", "x": []})");
    StructuralIterator iter(doc, kernels());
    iter.set_commas(true);
    iter.set_colons(true);
    EXPECT_EQ(drain(iter), "{:,:[]}");
}

TEST_P(IteratorTest, PeekDoesNotConsume)
{
    PaddedString doc(R"([{}])");
    StructuralIterator iter(doc, kernels());
    EXPECT_EQ(iter.peek().byte, '[');
    EXPECT_EQ(iter.peek().byte, '[');
    EXPECT_EQ(iter.next().byte, '[');
    EXPECT_EQ(iter.peek().byte, '{');
    EXPECT_EQ(iter.next().byte, '{');
}

TEST_P(IteratorTest, PeekAcrossBlockBoundary)
{
    std::string text = "[" + std::string(100, ' ') + "{}]";
    PaddedString doc(text);
    StructuralIterator iter(doc, kernels());
    EXPECT_EQ(iter.next().byte, '[');
    EXPECT_EQ(iter.peek().byte, '{');
    EXPECT_EQ(iter.next().pos, 101u);
}

TEST_P(IteratorTest, EventPositionsAreAbsolute)
{
    PaddedString doc(R"(  {"a": 1})");
    StructuralIterator iter(doc, kernels());
    iter.set_colons(true);
    EXPECT_EQ(iter.next().pos, 2u);
    EXPECT_EQ(iter.next().pos, 6u);
    EXPECT_EQ(iter.next().pos, 9u);
}

TEST_P(IteratorTest, LabelBacktracking)
{
    std::string text = R"({"alpha": {"beta" : [ {"x":1} ]}})";
    PaddedString doc(text);
    StructuralIterator iter(doc, kernels());
    ASSERT_EQ(iter.next().byte, '{');  // root: no label
    EXPECT_FALSE(iter.label_before(0).has_value());
    auto open_alpha = iter.next();
    ASSERT_EQ(open_alpha.byte, '{');
    EXPECT_EQ(iter.label_before(open_alpha.pos), "alpha");
    auto open_beta = iter.next();
    ASSERT_EQ(open_beta.byte, '[');
    EXPECT_EQ(iter.label_before(open_beta.pos), "beta");
    auto open_x = iter.next();
    ASSERT_EQ(open_x.byte, '{');
    // Array entry: artificial label.
    EXPECT_FALSE(iter.label_before(open_x.pos).has_value());
}

TEST_P(IteratorTest, LabelBacktrackingWithEscapes)
{
    std::string text = R"({"we \"said\"": {}})";
    PaddedString doc(text);
    StructuralIterator iter(doc, kernels());
    ASSERT_EQ(iter.next().byte, '{');
    auto open = iter.next();
    EXPECT_EQ(iter.label_before(open.pos), R"(we \"said\")");
}

TEST_P(IteratorTest, SkipElementConsumesWholeSubtree)
{
    PaddedString doc(R"({"a": {"deep": [{}, [], "}}"]}, "b": 1})");
    StructuralIterator iter(doc, kernels());
    ASSERT_EQ(iter.next().byte, '{');   // root
    auto open_a = iter.next();
    ASSERT_EQ(open_a.byte, '{');        // value of a
    iter.skip_element(open_a.byte);
    // Next event is the root's closing brace.
    auto next = iter.next();
    EXPECT_EQ(next.byte, '}');
    EXPECT_EQ(next.pos, doc.size() - 1);
}

TEST_P(IteratorTest, SkipToParentCloseLeavesCloserPending)
{
    PaddedString doc(R"({"a": 1, "b": {"c": [2]}, "d": 3})");
    StructuralIterator iter(doc, kernels());
    ASSERT_EQ(iter.next().byte, '{');
    iter.skip_to_parent_close(/*parent_is_object=*/true);
    auto closer = iter.next();
    EXPECT_EQ(closer.kind, Kind::kClosing);
    EXPECT_EQ(closer.pos, doc.size() - 1);
    EXPECT_EQ(iter.next().kind, Kind::kNone);
}

TEST_P(IteratorTest, SkipsWorkAcrossManyBlocks)
{
    std::string text = R"({"skip": [)";
    for (int i = 0; i < 100; ++i) {
        text += R"({"filler": "some padding text here"},)";
    }
    text += R"(0], "target": 7})";
    PaddedString doc(text);
    StructuralIterator iter(doc, kernels());
    ASSERT_EQ(iter.next().byte, '{');
    auto open = iter.next();
    ASSERT_EQ(open.byte, '[');
    iter.skip_element(open.byte);
    iter.set_colons(true);
    auto colon = iter.next();
    EXPECT_EQ(colon.kind, Kind::kColon);
    EXPECT_EQ(iter.label_before(colon.pos), "target");
}

TEST_P(IteratorTest, StopResumeRoundTrip)
{
    PaddedString doc(R"({"a": [1, {"b": 2}], "c": 3})");
    StructuralIterator iter(doc, kernels());
    ASSERT_EQ(iter.next().byte, '{');
    ASSERT_EQ(iter.next().byte, '[');
    ResumePoint point = iter.resume_point();

    // Drain to the end, then resume: the event stream must replay.
    std::string rest_once = drain(iter);
    iter.resume(point);
    std::string rest_twice = drain(iter);
    EXPECT_EQ(rest_once, rest_twice);
    EXPECT_EQ(rest_once, "{}]}");
}

TEST_P(IteratorTest, FirstNonWs)
{
    PaddedString doc("  \t\n7 ");
    StructuralIterator iter(doc, kernels());
    EXPECT_EQ(iter.first_non_ws(0), 4u);
    EXPECT_EQ(iter.first_non_ws(4), 4u);
    EXPECT_EQ(iter.first_non_ws(5), doc.size());
}

TEST_P(IteratorTest, EmptyInput)
{
    PaddedString doc("");
    StructuralIterator iter(doc, kernels());
    EXPECT_EQ(iter.next().kind, Kind::kNone);
    EXPECT_EQ(iter.peek().kind, Kind::kNone);
}

// ------------------------------------------------------ skip ring runs
//
// Once the block a skip is in cannot close the element, the skip consumes
// the blocks the ring already holds in one loop, and hands back to the
// per-block path for the block that may close, a depth-guard hit, the
// final partial block of a slice and a ring miss. The tests below put
// those hand-over points on block (64 B) and batch (512 B) edges and
// compare every skip with a bytewise model of the per-block path, and
// whole runs with the DOM oracle.

/** Where a skip ends: the next unconsumed byte, or the status it failed with. */
struct SkipOutcome {
    std::size_t position = 0;
    EngineStatus status;
};

/**
 * Bytewise model of skip_element (@p consume_closer) and
 * skip_to_parent_close from @p start, just inside an element opened by
 * @p opening: the same-kind relative depth finds the closer (§4.3), every
 * bracket counts toward the depth limit, and running off the end is a
 * truncated string or unbalanced structure at the end bound.
 */
SkipOutcome model_skip(std::string_view input, std::size_t start, char opening,
                       bool consume_closer, std::size_t max_relative)
{
    const char closing = opening == '{' ? '}' : ']';
    int relative_depth = 1;
    long true_depth = 1;
    bool in_string = false;
    for (std::size_t i = start; i < input.size(); ++i) {
        char c = input[i];
        if (in_string) {
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            if (true_depth >= 0 && static_cast<std::size_t>(true_depth) >= max_relative) {
                return {0, {StatusCode::kDepthLimit, i}};
            }
            ++true_depth;
            relative_depth += c == opening ? 1 : 0;
        } else if (c == '}' || c == ']') {
            --true_depth;
            if (c == closing && --relative_depth == 0) {
                return {consume_closer ? i + 1 : i, {}};
            }
        }
    }
    return {0, {in_string ? StatusCode::kTruncatedString
                          : StatusCode::kUnbalancedStructure,
                input.size()}};
}

/** The whole-input verdict StructuralValidator must reach: a string open
 *  at the end bound, else any nonzero per-kind bracket balance. */
EngineStatus model_verdict(std::string_view input)
{
    long objects = 0;
    long arrays = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < input.size(); ++i) {
        char c = input[i];
        if (in_string) {
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        in_string = c == '"';
        objects += c == '{' ? 1 : c == '}' ? -1 : 0;
        arrays += c == '[' ? 1 : c == ']' ? -1 : 0;
    }
    if (in_string) {
        return {StatusCode::kTruncatedString, input.size()};
    }
    if (objects != 0 || arrays != 0) {
        return {StatusCode::kUnbalancedStructure, input.size()};
    }
    return {};
}

/** A string value dense with brackets, escaped quotes and backslashes. */
std::string noisy_string(std::mt19937& rng)
{
    static constexpr std::string_view kAlphabet = "[]{}:,\"\\ x";
    std::string out = "\"";
    for (unsigned i = rng() % 24; i > 0; --i) {
        char c = kAlphabet[rng() % kAlphabet.size()];
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out + '"';
}

/** A random JSON value mixing both bracket kinds; chains nest up to a
 *  dozen levels in a few bytes, so single blocks hold many closers. */
std::string random_value(std::mt19937& rng, int depth)
{
    switch (rng() % (depth >= 6 ? 2 : 5)) {
        case 0: return std::to_string(rng() % 1000);
        case 1: return noisy_string(rng);
        case 2: {
            bool object = rng() % 2 == 0;
            unsigned levels = 1 + rng() % 12;
            std::string out;
            for (unsigned i = 0; i < levels; ++i) {
                out += object ? R"({"k": )" : "[";
            }
            out += noisy_string(rng);
            for (unsigned i = 0; i < levels; ++i) {
                out += object ? '}' : ']';
            }
            return out;
        }
        case 3: {
            std::string out = "[";
            for (unsigned i = rng() % 4; i > 0; --i) {
                out += random_value(rng, depth + 1) + (i > 1 ? ", " : "");
            }
            return out + "]";
        }
        default: {
            std::string out = "{";
            for (unsigned i = rng() % 4; i > 0; --i) {
                out += "\"m" + std::to_string(i) + "\": " + random_value(rng, depth + 1) +
                       (i > 1 ? ", " : "");
            }
            return out + "}";
        }
    }
}

/**
 * {"a": <element>, "z": 1} with the element (opened by @p opening, at byte
 * 6) closing exactly at byte @p closer_at. The filler whitespace goes
 * before the closer, or with @p pad_front right after the opener, so the
 * closing block is dense with the entries' own closers.
 */
std::string document_with_closer_at(std::size_t closer_at, char opening,
                                    bool pad_front, std::mt19937& rng)
{
    const std::string head = std::string(R"({"a": )") + opening;
    const std::size_t budget = closer_at - head.size();
    std::string body;
    for (int entry = 0, misses = 0; misses < 8; ++entry) {
        std::string next = body.empty() ? "" : ", ";
        if (opening == '{') {
            next += "\"e" + std::to_string(entry) + "\": ";
        }
        next += random_value(rng, 0);
        if (body.size() + next.size() > budget) {
            ++misses;
            continue;
        }
        body += next;
    }
    std::string pad(budget - body.size(), ' ');
    return head + (pad_front ? pad + body : body + pad) +
           (opening == '{' ? '}' : ']') + R"(, "z": 1})";
}

/** Skips the element at byte 6 both ways and checks both against the model. */
void expect_skips_match_model(PaddedView input, const simd::Kernels& kernels,
                              std::size_t max_depth = EngineLimits::kUnlimited)
{
    std::string_view text(reinterpret_cast<const char*>(input.data()), input.size());
    SCOPED_TRACE("document: " + std::string(text));
    const char opening = text[6];
    // The root is open around the element: base depth 1.
    const std::size_t max_relative = max_depth - 1;
    for (bool consume_closer : {true, false}) {
        SCOPED_TRACE(consume_closer ? "skip_element" : "skip_to_parent_close");
        StructuralValidator validator;
        StructuralIterator iter(input, kernels, &validator, max_depth);
        ASSERT_EQ(iter.next().byte, '{');
        auto open = iter.next();
        ASSERT_EQ(open.pos, 6u);
        if (consume_closer) {
            iter.skip_element(open.byte, 1);
        } else {
            iter.skip_to_parent_close(opening == '{', 1);
        }
        SkipOutcome expected =
            model_skip(text, open.pos + 1, opening, consume_closer, max_relative);
        EXPECT_EQ(iter.status(), expected.status);
        if (!expected.status.ok()) {
            EXPECT_EQ(iter.next().kind, Kind::kNone);
            if (expected.status.code != StatusCode::kDepthLimit) {
                // The skip ran to the end bound, so every block reached
                // the validator, ring-run blocks included.
                EXPECT_EQ(validator.verdict(text.size()), model_verdict(text));
            }
            continue;
        }
        EXPECT_EQ(iter.position(), expected.position);
        auto after = iter.next();
        EXPECT_EQ(after.kind, Kind::kClosing);
        EXPECT_EQ(after.pos, consume_closer ? text.size() - 1 : expected.position);
        drain(iter);
        EXPECT_TRUE(iter.status().ok());
        EXPECT_EQ(validator.counted_until(),
                  (text.size() + simd::kBlockSize - 1) / simd::kBlockSize *
                      simd::kBlockSize);
        EXPECT_EQ(validator.verdict(text.size()), EngineStatus{});
    }
}

/** Byte offsets around the first three batch edges and two block edges. */
const std::vector<std::size_t> kEdgeOffsets = {63,   64,   65,   511,  512,
                                               513,  575,  576,  577,  1023,
                                               1024, 1025, 1535, 1536, 1537};

TEST_P(IteratorTest, RingRunSkipsStopAtClosersOnBatchEdges)
{
    std::mt19937 rng(12);
    for (std::size_t closer_at : kEdgeOffsets) {
        for (char opening : {'{', '['}) {
            for (bool pad_front : {false, true}) {
                for (int trial = 0; trial < 3; ++trial) {
                    std::string text =
                        document_with_closer_at(closer_at, opening, pad_front, rng);
                    ASSERT_EQ(text[closer_at], opening == '{' ? '}' : ']');
                    expect_skips_match_model(PaddedString(text), kernels());
                }
            }
        }
    }
}

TEST_P(IteratorTest, RingRunSkipsIgnoreBracketsInStringsAcrossBatchEdges)
{
    // A string full of both kinds' closers (and escaped quotes and
    // backslashes) starting at every offset from 440 to 600, so it spans
    // the 448, 512 and 576 block edges — the middle one a batch edge.
    const std::string noise = R"(]]}}\"\\]}[{\\\"}])";
    for (char opening : {'{', '['}) {
        for (std::size_t string_at = 440; string_at <= 600; ++string_at) {
            std::string text = std::string(R"({"a": )") + opening;
            if (opening == '{') {
                text += R"("s": )";
            }
            text += std::string(string_at - text.size(), ' ') + '"';
            for (int i = 0; i < 6; ++i) {
                text += noise;
            }
            text += '"';
            text += opening == '{' ? R"(, "t": [[{"u": []}]])" : R"(, [[{"u": []}]])";
            text += std::string(1100 - text.size(), ' ');
            text += opening == '{' ? '}' : ']';
            text += R"(, "z": 1})";
            expect_skips_match_model(PaddedString(text), kernels());
        }
    }
}

/** {"a": <element>, "z": 1} with twelve nested arrays starting at byte
 *  @p deep_at inside the element, which closes at byte 1700. */
std::string deeply_nested_document(char opening, std::size_t deep_at)
{
    std::string text = std::string(R"({"a": )") + opening;
    if (opening == '{') {
        text += R"("d": )";
    }
    text += std::string(deep_at - text.size(), ' ');
    text += std::string(12, '[') + "1" + std::string(12, ']');
    text += std::string(1700 - text.size(), ' ');
    text += opening == '{' ? '}' : ']';
    return text + R"(, "z": 1})";
}

TEST_P(IteratorTest, DepthLimitInsideRingRunReportsTheSameOpener)
{
    // Twelve nested arrays starting anywhere in the second and third
    // batches: under a limit of 8 the guard must fire on the opener that
    // reaches depth 9, whichever block of a ring run holds it.
    for (char opening : {'{', '['}) {
        for (std::size_t deep_at = 520; deep_at < 1600; deep_at += 29) {
            std::string text = deeply_nested_document(opening, deep_at);
            SCOPED_TRACE("deep_at: " + std::to_string(deep_at));
            expect_skips_match_model(PaddedString(text), kernels(), 8);
            // The seventh '[' is the first past the limit: root, element
            // and seven arrays make depth 9.
            EXPECT_EQ(model_skip(text, 7, opening, true, 7).status,
                      (EngineStatus{StatusCode::kDepthLimit, deep_at + 6}));
        }
    }
}

TEST_P(IteratorTest, RingRunSkipsStopAtTheFinalPartialBlockOfASlice)
{
    // A record slice of a larger buffer: its final partial block sits in
    // the middle of a ring run, and the buffer past the end bound holds
    // closers and quotes that must not end the skip, nor rescue one whose
    // closer the slice cuts off.
    const std::string tail = R"(]]]]}}}}"\"]}]}, {"a": [1]})" + std::string(600, ']');
    std::mt19937 rng(7);
    for (std::size_t closer_at : {650u, 700u, 1000u, 1021u, 1500u}) {
        for (char opening : {'{', '['}) {
            std::string record = document_with_closer_at(closer_at, opening, true, rng);
            ASSERT_NE(record.size() % simd::kBlockSize, 0u);
            PaddedString buffer(record + tail);
            expect_skips_match_model(PaddedView(buffer).subview(0, record.size()),
                                     kernels());
            // Cut the record just before the element's closer, and just
            // after its last quote (inside a string the tail would close,
            // when that quote opens one).
            expect_skips_match_model(PaddedView(buffer).subview(0, closer_at),
                                     kernels());
            std::size_t quote = record.rfind('"', closer_at);
            ASSERT_NE(quote, std::string::npos);
            expect_skips_match_model(PaddedView(buffer).subview(0, quote + 1),
                                     kernels());
        }
    }
    // A slice ending inside a string that its first tail byte closes, the
    // tail then opening arrays: the final partial block holds no closer,
    // and only its in-bound bits may reach the validator (still in a
    // string, balanced otherwise but for the element).
    for (std::size_t cut : {654u, 700u, 1001u}) {
        std::string record = R"({"a": [)" + std::string(cut - 11, ' ') + R"("abc)";
        PaddedString buffer(record + '"' + std::string(600, '['));
        expect_skips_match_model(PaddedView(buffer).subview(0, record.size()),
                                 kernels());
    }
}

TEST_P(IteratorTest, RingRunSkipToABlockAlignedEndInsideAString)
{
    // The last block, consumed by a ring run, ends inside a string: the
    // skip reports the truncated string, and so must the validator.
    for (std::size_t size : {1024u, 1536u, 2048u}) {
        std::string text = R"({"a": [)" + std::string(size - 12, ' ') + R"("abc})";
        ASSERT_EQ(text.size(), size);
        expect_skips_match_model(PaddedString(text), kernels());
    }
}

INSTANTIATE_TEST_SUITE_P(Levels, IteratorTest,
                         ::testing::Values(simd::Level::avx512, simd::Level::avx2,
                                           simd::Level::scalar),
                         [](const ::testing::TestParamInfo<simd::Level>& info) {
                             return simd::level_name(info.param);
                         });

TEST(RingRunSkips, EnginesAgreeWithDomOracleAtBatchEdges)
{
    // Whole runs whose child and sibling skips end on block and batch
    // edges, in every engine configuration: matches and statuses against
    // the DOM oracle.
    std::mt19937 rng(3);
    for (std::size_t closer_at : kEdgeOffsets) {
        for (char opening : {'{', '['}) {
            std::string text = document_with_closer_at(closer_at, opening, closer_at % 2 == 0, rng);
            for (const char* query :
                 {"$.z", "$.a.e1", "$.a.*", "$.a[1]", "$..e2", "$..k", "$.a.*.m1"}) {
                testing::expect_all_engines_agree(query, text);
            }
        }
    }
}

TEST(RingRunSkips, DepthLimitOffsetMatchesDomOracle)
{
    for (char opening : {'{', '['}) {
        for (std::size_t deep_at = 520; deep_at < 1600; deep_at += 53) {
            std::string text = deeply_nested_document(opening, deep_at);
            EngineLimits limits;
            limits.max_depth = 8;
            DomEngine oracle(query::Query::parse("$.z"), limits);
            CountSink oracle_sink;
            EngineStatus expected = oracle.run(PaddedString(text), oracle_sink);
            ASSERT_EQ(expected, (EngineStatus{StatusCode::kDepthLimit, deep_at + 6}));
            for (EngineOptions options : testing::engine_configurations()) {
                options.limits = limits;
                DescendEngine engine(automaton::CompiledQuery::compile("$.z"), options);
                CountSink sink;
                EXPECT_EQ(engine.run(PaddedString(text), sink), expected)
                    << testing::describe(options) << ", deep_at " << deep_at;
            }
        }
    }
}

TEST(RingRunSkips, ValidatorSeesBracketsDeletedInsideRingRuns)
{
    // Deleting any one bracket outside strings, inside a skipped element
    // and past its first block, must fail the run: either the skip loses
    // its closer or the validator's balances catch what it jumped over.
    std::mt19937 rng(5);
    for (char opening : {'{', '['}) {
        std::string text = document_with_closer_at(1300, opening, false, rng);
        bool in_string = false;
        int deletions = 0;
        for (std::size_t i = 7; i < 1300; ++i) {
            char c = text[i];
            if (in_string) {
                i += c == '\\' ? 1 : 0;
                in_string = c != '"';
                continue;
            }
            in_string = c == '"';
            if (i < 128 || (c != '{' && c != '}' && c != '[' && c != ']')) {
                continue;
            }
            std::string damaged = text;
            damaged[i] = ' ';
            ++deletions;
            for (EngineOptions options : testing::engine_configurations()) {
                DescendEngine engine(automaton::CompiledQuery::compile("$.z"), options);
                CountSink sink;
                EXPECT_FALSE(engine.run(PaddedString(damaged), sink).ok())
                    << testing::describe(options) << ", deleted byte " << i;
            }
        }
        EXPECT_GT(deletions, 50);
    }
}

TEST(PaddedString, CopiesAndPads)
{
    PaddedString doc("abc");
    EXPECT_EQ(doc.size(), 3u);
    EXPECT_EQ(doc.view(), "abc");
    // Padding must be whitespace for at least kPadding bytes.
    for (std::size_t i = 0; i < PaddedString::kPadding; ++i) {
        EXPECT_EQ(doc.data()[3 + i], ' ');
    }
}

TEST(PaddedString, MoveTransfersOwnership)
{
    PaddedString source("hello");
    PaddedString moved(std::move(source));
    EXPECT_EQ(moved.view(), "hello");
    EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
    PaddedString assigned;
    assigned = std::move(moved);
    EXPECT_EQ(assigned.view(), "hello");
}

TEST(Extract, DelimitsEveryValueKind)
{
    PaddedString doc(R"({"o": {"x": [1, "]"]}, "a": [ {"y":2} ], "s": "a,b",
                        "n": -1.5e3, "t": true, "z": null})");
    auto value_at = [&](std::size_t offset) {
        return std::string(extract_value(doc, offset));
    };
    EXPECT_EQ(value_at(doc.view().find("{\"x\"")), R"({"x": [1, "]"]})");
    EXPECT_EQ(value_at(doc.view().find("[ {")), R"([ {"y":2} ])");
    EXPECT_EQ(value_at(doc.view().find("\"a,b\"")), R"("a,b")");
    EXPECT_EQ(value_at(doc.view().find("-1.5e3")), "-1.5e3");
    EXPECT_EQ(value_at(doc.view().find("true")), "true");
    EXPECT_EQ(value_at(doc.view().find("null")), "null");
}

}  // namespace
}  // namespace descend
