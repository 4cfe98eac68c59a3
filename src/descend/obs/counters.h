/**
 * @file
 * The observability counter registry (the heart of src/descend/obs).
 *
 * Every quantity the paper's evaluation reasons about — blocks classified
 * vs. blocks fast-forwarded by each skipping technique, label-search
 * candidates vs. verified hits, stop/resume switches of the classifier
 * pipeline, depth-stack pushes vs. raw opening characters — is a named
 * counter in one flat registry, incremented at the single point in the
 * pipeline where the event happens.
 *
 * Gating contract: the whole subsystem sits behind the DESCEND_OBS CMake
 * option (exported as the DESCEND_OBS_ENABLED compile definition, PUBLIC
 * on the descend target so every consumer agrees on struct layouts).
 * With the gate off, Counters collapses to an empty struct whose methods
 * are inline no-ops — every increment in the hot path compiles away to
 * nothing, no counter storage or symbols exist in the binary, and the
 * classifier kernels are bit-for-bit unaffected. With the gate on (the
 * default), counters are plain unsynchronized uint64 adds: one registry
 * belongs to one run (one thread); cross-shard aggregation merges whole
 * registries after the workers join (see stream/record_scheduler.h).
 *
 * See DESIGN.md §4.6 for the counter taxonomy and the JSON report schema.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#if !defined(DESCEND_OBS_ENABLED)
#define DESCEND_OBS_ENABLED 0
#endif

namespace descend::obs {

/** True when the library was built with DESCEND_OBS=ON. */
inline constexpr bool kEnabled = DESCEND_OBS_ENABLED != 0;

/**
 * Every per-run counter. The enum order is the JSON report order; names
 * (counter_name) are the stable export identifiers, so renumbering is
 * free but renaming is a schema change.
 */
enum class Counter : std::uint8_t {
    // --- automaton simulation ---
    kStructuralEvents,    ///< structural events the main loop consumed
    kOpeningEvents,       ///< raw '{' / '[' events among those
    kDepthStackPushes,    ///< sparse depth-stack frames actually pushed
    kDepthStackMax,       ///< high-water mark of the depth-stack (gauge)
    // --- skipping techniques (invocations) ---
    kChildSkips,          ///< skip-children fast-forwards
    kSiblingSkips,        ///< skip-siblings fast-forwards
    kWithinSkips,         ///< within-element label fast-forwards (§4.5)
    kHeadSkipJumps,       ///< head-skip label occurrences processed
    // --- fused multi-query execution: skips one lane wanted but another
    //     vetoed. Only the deleted lanes backend could veto a skip; the
    //     product engine never does, so these always read 0. Kept because
    //     counter names are a frozen schema. ---
    kFusedChildSkipSuppressed,    ///< child skips lost to disagreement
    kFusedSiblingSkipSuppressed,  ///< sibling skips lost to disagreement
    kFusedWithinSkipSuppressed,   ///< within-element skips lost to disagreement
    // --- set-compiled execution (src/descend/multi/product_engine.h) ---
    kProductStates,        ///< states of the compiled product automaton (gauge)
    kProductSkips,         ///< fast-forwards certified by a product state
    kSubscriberFanout,     ///< per-subscriber match emissions (incl. duplicates)
    // --- label search ---
    kLabelSearchCandidates,  ///< prefiltered quote candidates verified bytewise
    kLabelSearchHits,        ///< candidates confirmed as `"label":` members
    // --- classifier pipeline ---
    kBatchRefills,        ///< classify_batch kernel calls (ring refills)
    kBlocksClassified,    ///< blocks classified by those calls (refills x 8)
    kPipelineResumes,     ///< stop/resume switches (ring restarts with a
                          ///< re-seeded quote carry)
    // --- per-block attribution (each input block counted exactly once,
    //     under the mode that first pulled it through a pipeline) ---
    kBlocksStructural,     ///< consumed by structural iteration
    kBlocksChildSkipped,   ///< consumed by skip-children fast-forwards
    kBlocksSiblingSkipped, ///< consumed by skip-siblings fast-forwards
    kBlocksWithinSkipped,  ///< consumed by within-element label scans
    kBlocksHeadSkip,       ///< consumed by the head-skip label search
    kBlocksTail,           ///< never pulled through any pipeline (trailing
                           ///< whitespace after the root closer; everything,
                           ///< for runs that end before classification)
    // --- run governance (util/budget.h; stream executors) ---
    kDeadlineHits,         ///< runs stopped by a RunBudget deadline
    kCancelHits,           ///< runs stopped by a CancelToken
    kScalarRetries,        ///< records re-run on the scalar tier (kRetryScalar)
    kTierDivergences,      ///< scalar retries that changed the outcome
    // --- serve daemon (src/descend/serve): per-request tallies folded
    //     into each response's stats report ---
    kServeCacheHits,       ///< requests served from the compiled-query cache
    kServeCacheMisses,     ///< requests that compiled their query fresh
    // --- projection (src/descend/project): on-demand materialization of
    //     matched subtrees into value spans, slices, and lazy views ---
    kProjectedValues,      ///< match offsets extended to full value spans
    kProjectedBytes,       ///< total bytes covered by those spans
    kLazyFieldsParsed,     ///< LazyValue member/element navigations resolved
    kCount_,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount_);

/** Stable JSON export name of a counter. */
constexpr const char* counter_name(Counter id) noexcept
{
    switch (id) {
        case Counter::kStructuralEvents: return "structural_events";
        case Counter::kOpeningEvents: return "opening_events";
        case Counter::kDepthStackPushes: return "depth_stack_pushes";
        case Counter::kDepthStackMax: return "depth_stack_max";
        case Counter::kChildSkips: return "child_skips";
        case Counter::kSiblingSkips: return "sibling_skips";
        case Counter::kWithinSkips: return "within_skips";
        case Counter::kHeadSkipJumps: return "head_skip_jumps";
        case Counter::kFusedChildSkipSuppressed:
            return "fused_child_skip_suppressed";
        case Counter::kFusedSiblingSkipSuppressed:
            return "fused_sibling_skip_suppressed";
        case Counter::kFusedWithinSkipSuppressed:
            return "fused_within_skip_suppressed";
        case Counter::kProductStates: return "product_states";
        case Counter::kProductSkips: return "product_skips";
        case Counter::kSubscriberFanout: return "subscriber_fanout";
        case Counter::kLabelSearchCandidates: return "label_search_candidates";
        case Counter::kLabelSearchHits: return "label_search_hits";
        case Counter::kBatchRefills: return "batch_refills";
        case Counter::kBlocksClassified: return "blocks_classified";
        case Counter::kPipelineResumes: return "pipeline_resumes";
        case Counter::kBlocksStructural: return "blocks_structural";
        case Counter::kBlocksChildSkipped: return "blocks_child_skipped";
        case Counter::kBlocksSiblingSkipped: return "blocks_sibling_skipped";
        case Counter::kBlocksWithinSkipped: return "blocks_within_skipped";
        case Counter::kBlocksHeadSkip: return "blocks_head_skip";
        case Counter::kBlocksTail: return "blocks_tail";
        case Counter::kDeadlineHits: return "deadline_hits";
        case Counter::kCancelHits: return "cancel_hits";
        case Counter::kScalarRetries: return "scalar_retries";
        case Counter::kTierDivergences: return "tier_divergences";
        case Counter::kServeCacheHits: return "serve_cache_hits";
        case Counter::kServeCacheMisses: return "serve_cache_misses";
        case Counter::kProjectedValues: return "projected_values";
        case Counter::kProjectedBytes: return "projected_bytes";
        case Counter::kLazyFieldsParsed: return "lazy_fields_parsed";
        case Counter::kCount_: break;
    }
    return "unknown";
}

/** Gauges are high-water marks: merging takes the max, not the sum. */
constexpr bool counter_is_gauge(Counter id) noexcept
{
    return id == Counter::kDepthStackMax || id == Counter::kProductStates;
}

#if DESCEND_OBS_ENABLED

/** The per-run registry: a flat array indexed by Counter. */
class Counters {
public:
    void add(Counter id, std::uint64_t n = 1) noexcept { values_[index(id)] += n; }

    /** Gauge update: records @p value if it exceeds the current one. */
    void raise(Counter id, std::uint64_t value) noexcept
    {
        if (value > values_[index(id)]) {
            values_[index(id)] = value;
        }
    }

    std::uint64_t get(Counter id) const noexcept { return values_[index(id)]; }

    /** Aggregates another run's registry: sums, except gauges (max). */
    void merge(const Counters& other) noexcept
    {
        for (std::size_t i = 0; i < kCounterCount; ++i) {
            Counter id = static_cast<Counter>(i);
            if (counter_is_gauge(id)) {
                raise(id, other.values_[i]);
            } else {
                values_[i] += other.values_[i];
            }
        }
    }

private:
    static constexpr std::size_t index(Counter id) noexcept
    {
        return static_cast<std::size_t>(id);
    }

    std::uint64_t values_[kCounterCount] = {};
};

#else  // DESCEND_OBS_ENABLED

/** Gate off: an empty registry whose methods compile away entirely. */
class Counters {
public:
    void add(Counter, std::uint64_t = 1) noexcept {}
    void raise(Counter, std::uint64_t) noexcept {}
    std::uint64_t get(Counter) const noexcept { return 0; }
    void merge(const Counters&) noexcept {}
};

#endif  // DESCEND_OBS_ENABLED

/** Null-tolerant increment: pipeline components hold a Counters pointer
 *  that is null when the caller requested no instrumentation. */
inline void add(Counters* counters, Counter id, std::uint64_t n = 1) noexcept
{
    if (counters != nullptr) {
        counters->add(id, n);
    }
}

/** Null-tolerant gauge update. */
inline void raise(Counters* counters, Counter id, std::uint64_t value) noexcept
{
    if (counters != nullptr) {
        counters->raise(id, value);
    }
}

}  // namespace descend::obs
