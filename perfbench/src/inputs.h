/**
 * @file
 * The benchmark's inputs: the queries of each workload, the datasets and
 * NDJSON stream written at set-up, and the request pool the serve layers
 * are probed on.
 *
 * Dataset bytes come from descend::workloads::generate, whose generators
 * have fixed seeds, so they do not depend on --seed. The seed drives only
 * what the benchmark itself arranges: query order per pass (run.py), the
 * NDJSON record order, and the request sequence of the serve probe.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "descend/serve/protocol.h"

namespace perfbench {

inline constexpr std::size_t kDocBytes = std::size_t{64} << 20;
inline constexpr std::size_t kStreamBytes = std::size_t{64} << 20;

/** One paper query over one generated dataset. */
struct DocQuery {
    std::string id;
    std::string dataset;
    std::string query;
};

/** Skip-dominated queries: child, sibling and head skips and LabelSearch
 *  consume most blocks (Ts, W2, W2r, B3, G2r, Wi, O1r). */
const std::vector<DocQuery>& doc_skip_queries();

/** Dense, walk-bound queries: structural iteration, per-event automaton
 *  steps and projection do the work (A1, A2, B1, C1, C2, N2). */
const std::vector<DocQuery>& doc_dense_queries();

/** The query list of a doc-* workload; throws for other names. */
const std::vector<DocQuery>& doc_queries(const std::string& workload);

/** Distinct datasets of a query list, in first-use order. */
std::vector<std::string> datasets_of(const std::vector<DocQuery>& queries);

std::string doc_path(const std::string& dir, const std::string& dataset);

/** 64 shared-prefix subscriptions: the product backend compiles them. */
std::vector<std::string> stream_product_set();

/** The same set plus one filter, which makes the auto backend fall back
 *  to per-query lanes. */
std::vector<std::string> stream_lanes_set();

/** The NDJSON stream: distinct record bodies and the seed-shuffled order
 *  in which they are written. */
struct StreamPlan {
    std::vector<std::string> variants;
    std::vector<std::uint32_t> order;
};
StreamPlan plan_stream(std::uint64_t seed);

std::string stream_path(const std::string& dir);

/** One kind of request of the serve probe. */
struct ServeTemplate {
    descend::serve::RequestMode mode = descend::serve::RequestMode::kSingle;
    std::uint32_t flags = 0;
    std::string query;     ///< newline-separated for multi requests
    std::size_t body = 0;  ///< index into ServePool::bodies
};

/** Request bodies (4-64 KiB documents and NDJSON batches) and the
 *  cacheable request templates over them. */
struct ServePool {
    std::vector<std::string> bodies;
    std::vector<ServeTemplate> templates;
};
ServePool build_serve_pool();

/** Writes @p bytes to @p path, throwing on failure. */
void write_file(const std::string& path, const std::string& bytes);

/** Reads a whole file, throwing on failure. */
std::string read_file(const std::string& path);

}  // namespace perfbench
