/**
 * @file
 * The `lanes` fused backend: N compiled automata over ONE classification
 * pass of the batched block stream.
 *
 * A standalone engine run spends most of its time classifying blocks for
 * fast, selective queries (paper §4, Experiments B/C) — so N queries run
 * sequentially pay for N classification passes over identical bytes. The
 * fused engine advances one depth-stack simulation per DISTINCT query off
 * the same structural events: one block classification, one label
 * resolution per event (against the shared union alphabet), then an O(1)
 * automaton transition per lane; duplicate queries share a lane and fan
 * out to their owners at report time.
 *
 * Skipping degrades soundly to the set's consensus: a fast-forward
 * (children / siblings / within-element label / head-skip) is taken only
 * when *every* lane agrees the region is irrelevant to it — a lane parked
 * in its trash state agrees to anything; a live lane vetoes. Vetoed skips
 * fall back to structural iteration and are tallied in the obs counters
 * (fused_*_skip_suppressed), so the cost of disagreement is visible. The
 * `product` backend (product_engine.h) removes the per-lane loop and the
 * consensus entirely; this backend remains the uncapped fallback.
 */
#pragma once

#include <string>
#include <vector>

#include "descend/multi/fused.h"
#include "descend/simd/dispatch.h"

namespace descend::multi {

/** The lanes engine. See FusedEngine for the run/status contract. */
class MultiDescendEngine final : public FusedEngine {
public:
    explicit MultiDescendEngine(MultiQuery queries, EngineOptions options = {});

    /** Convenience: parse + compile + wrap. */
    static MultiDescendEngine for_queries(
        const std::vector<std::string>& query_texts, EngineOptions options = {})
    {
        return MultiDescendEngine(MultiQuery::compile(query_texts), options);
    }

    std::string name() const override;

    const MultiQuery& query_set() const noexcept override { return queries_; }
    const EngineOptions& options() const noexcept override { return options_; }

private:
    RunStats dispatch(PaddedView document, MultiSink& sink,
                      const RunBudget& budget) const override;

    MultiQuery queries_;
    EngineOptions options_;
    const simd::Kernels* kernels_;
};

}  // namespace descend::multi
