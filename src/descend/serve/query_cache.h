/**
 * @file
 * The compiled-automaton cache: compile once, serve forever.
 *
 * Query compilation (parse → NFA → DFA → minimize → properties) costs
 * orders of magnitude more than a typical request's engine run, so a
 * long-lived service must never recompile a query it has already seen.
 * QueryCache is a sharded LRU keyed by the *request shape*: the query
 * text(s), the execution mode, and the effective EngineLimits (limits are
 * baked into engine construction, so two tenants with different limits
 * get distinct entries rather than shared, wrongly-limited ones).
 *
 * Multi-query keys are canonical: each line of the set is parsed and
 * re-serialized (query::Query::to_string), so subscriptions that differ
 * only in whitespace or selector spelling share one compiled product
 * automaton. Line order is preserved — response offsets are per input
 * index, so reordered sets are different request shapes — and a line
 * that does not parse keeps its raw text (the build step then reports
 * the QueryError; failed compilations are never cached).
 *
 * Entries are immutable once built and handed out as
 * shared_ptr<const CachedQuery>: an entry evicted while requests still
 * run on it stays alive until the last request drops its reference —
 * eviction never invalidates an in-flight run. The engines' const run
 * paths are stateless, so one entry serves any number of concurrent
 * requests.
 *
 * Sharding: the key hash picks one of N independently locked shards,
 * each with capacity/N, so concurrent workers rarely contend on one
 * mutex. Duplicate compilation is possible when two workers miss the
 * same key simultaneously (both compile, last insert wins) — accepted:
 * the duplicate work is bounded by one compile and the alternative, a
 * per-key in-flight latch, would serialize the common path.
 *
 * Hit/miss/eviction tallies are plain atomics (the cache is shared
 * across threads, so the per-run obs::Counters registry cannot hold
 * them); the server folds them into its stats report, and per-request
 * hits also ride the response's kCacheHit flag.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "descend/engine/main_engine.h"
#include "descend/multi/product_engine.h"
#include "descend/serve/protocol.h"

namespace descend::serve {

/**
 * One immutable cache entry: the compiled artifact for one request
 * shape. Exactly one of engine / multi_engine is set (single and NDJSON
 * requests share the single-query artifact; NDJSON requests additionally
 * copy engine->compiled_query() into a per-request StreamExecutor — a
 * table copy, not a recompilation).
 */
struct CachedQuery {
    /** Ready-to-run single-document engine (single-query shapes only). */
    std::unique_ptr<DescendEngine> engine;
    /** Ready-to-run fused engine (multi-query shapes only). */
    std::unique_ptr<multi::ProductDescendEngine> multi_engine;
};

using CachedQueryPtr = std::shared_ptr<const CachedQuery>;

/** Aggregate cache statistics (monotonic since construction). */
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /** Entries currently resident across all shards. */
    std::size_t entries = 0;
};

class QueryCache {
public:
    /**
     * @param capacity maximum resident entries across all shards (at
     *        least one per shard is always allowed).
     * @param shards   lock shards; clamped to [1, capacity].
     */
    explicit QueryCache(std::size_t capacity = 256, std::size_t shards = 8);

    /**
     * Returns the entry for (mode, query, options), compiling it on a
     * miss. @p hit reports whether a cached entry was reused. Throws
     * QueryError/LimitError when the query text does not compile (the
     * dispatcher maps that to ServeStatus::kBadQuery); failed
     * compilations are never cached.
     *
     * `options.limits` participates in the key; the rest of
     * EngineOptions is the server-wide configuration and is assumed
     * uniform across requests.
     */
    CachedQueryPtr lookup(RequestMode mode, const std::string& query,
                          const EngineOptions& options, bool& hit);

    CacheStats stats() const;

    /** Drops every entry (in-flight references stay valid). */
    void clear();

private:
    struct Shard {
        std::mutex mutex;
        /** LRU order, most recent at the front; pairs (key, entry). */
        std::list<std::pair<std::string, CachedQueryPtr>> order;
        std::unordered_map<std::string,
                           std::list<std::pair<std::string, CachedQueryPtr>>::
                               iterator>
            index;
    };

    static std::string make_key(RequestMode mode, const std::string& query,
                                const EngineLimits& limits);

    static CachedQueryPtr build(RequestMode mode, const std::string& query,
                                const EngineOptions& options);

    std::size_t shard_capacity_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::size_t> entries_{0};
};

/** Splits a kMulti request's newline-separated query field into the set
 *  (blank lines are skipped; CR tolerated). Shared by cache and tests. */
std::vector<std::string> split_query_set(const std::string& queries);

}  // namespace descend::serve
