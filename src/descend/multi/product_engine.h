/**
 * @file
 * The multi-query engine: the whole query set as ONE simulation.
 *
 * The engine advances a single product-state id over the set-compiled
 * automaton of product_query.h: one shared-alphabet label resolution, one
 * exception-list transition, one flags load — O(distinct automaton
 * states) of precomputation, O(1) work per event regardless of N.
 *
 * Skip decisions are per-state properties of the union automaton:
 * `rejecting` IS "nothing in the entire set can match below", so a child
 * skip needs no vote and is never vetoed. Matches fan out by iterating
 * the target state's subscriber bitset, then each distinct query's owner
 * list — ascending, so each query reports in document order, exactly as
 * its independent run would. A distinct query with a trailing filter owns
 * one filter gate per run, evaluated once per candidate before the
 * query's match tally (a rejected candidate uses up none of
 * EngineLimits::max_match_count).
 *
 * A set whose product exceeds the state cap runs as sequential groups:
 * the distinct queries are sorted by canonical text (shared prefixes sit
 * together) and halved until every half compiles. Each group is a product
 * automaton over the set's shared alphabet and gets its own pass over the
 * document; all passes share the reporter, the budget and the sink, and
 * the first non-ok pass ends the run. Sets under the cap (every set the
 * benchmarks and the paper's experiments use) compile to one group.
 *
 * Status semantics: the document is a single byte stream, so the run has
 * a single EngineStatus — malformed input fails the set as a whole, and a
 * per-query limit violation (max_match_count applies per input query,
 * mirroring N independent runs) fails the run at that offset. Const run
 * paths touch no mutable engine state: one instance serves concurrent
 * runs (the stream executor shares one).
 */
#pragma once

#include <string>
#include <vector>

#include "descend/engine/api.h"
#include "descend/engine/padded_string.h"
#include "descend/multi/multi_query.h"
#include "descend/multi/multi_sink.h"
#include "descend/multi/product_query.h"
#include "descend/obs/run_stats.h"
#include "descend/simd/dispatch.h"

namespace descend::multi {

class ProductDescendEngine {
public:
    /** Compiles @p queries into one product automaton, or into sequential
     *  groups when subset construction exceeds @p max_states (see
     *  QuerySetCompiler::compile). @throws LimitError only when a single
     *  query alone exceeds @p max_states. */
    explicit ProductDescendEngine(MultiQuery queries, EngineOptions options = {},
                                  int max_states = 1 << 15);

    /** The groups of @p compiled under other @p options (no recompilation;
     *  the stream executor's scalar-tier retry engine). */
    ProductDescendEngine(const ProductDescendEngine& compiled,
                         EngineOptions options);

    std::string name() const;

    EngineStatus run(const PaddedString& document, MultiSink& sink) const
    {
        return run(PaddedView(document), sink);
    }

    /** Zero-copy slice run (record of an NDJSON stream); offsets are
     *  relative to the slice start, as DescendEngine::run. */
    EngineStatus run(PaddedView document, MultiSink& sink) const;

    /** Like run(), additionally reporting what the run did. A grouped run
     *  accounts every pass: its block counters sum to the group count
     *  times the document's blocks, and `product_states` sums the groups'
     *  states. */
    RunStats run_with_stats(PaddedView document, MultiSink& sink) const;

    /**
     * Budget-override run: governs this one run by @p budget instead of
     * options().budget — how the multi-stream executor gives each record
     * its own slice of a stream-level budget without rebuilding engines.
     */
    RunStats run_with_stats(PaddedView document, MultiSink& sink,
                            const RunBudget& budget) const;

    const MultiQuery& query_set() const noexcept { return queries_; }
    const EngineOptions& options() const noexcept { return options_; }

    /** The product automata, run in order: one unless the set exceeded
     *  the state cap. */
    const std::vector<ProductAutomaton>& groups() const noexcept
    {
        return groups_;
    }

private:
    RunStats dispatch(PaddedView document, MultiSink& sink,
                      const RunBudget& budget) const;

    MultiQuery queries_;
    std::vector<ProductAutomaton> groups_;
    /** Some distinct query carries a filter (runs then build gates). */
    bool has_filters_ = false;
    EngineOptions options_;
    const simd::Kernels* kernels_;
};

}  // namespace descend::multi
