#include "descend/multi/product_engine.h"

#include <vector>

#include "descend/engine/simulation.h"

namespace descend::multi {
namespace {

/**
 * The product backend's reporter for the shared Simulation: fans an
 * accepting state out to its subscribers, distinct queries in ascending id
 * order (bitset scan), then each one's owners in ascending input order —
 * the exact report order of the lanes backend and of N independent runs.
 * The match limit applies per distinct query; duplicates share the counter
 * and so trip it identically to their own independent runs.
 */
class SubscriberReporter {
public:
    SubscriberReporter(const MultiQuery& queries, const ProductAutomaton& product,
                       const EngineOptions& options, MultiSink& sink,
                       RunStats& stats)
        : queries_(queries),
          product_(product),
          sink_(sink),
          stats_(stats),
          max_matches_(options.limits.max_match_count),
          matches_(queries.num_distinct(), 0)
    {
    }

    bool report(int accepting_state, std::size_t offset)
    {
        bool within_limits = true;
        int set_id = product_.accept_set_id(accepting_state);
        product_.accept_set(set_id).for_each([&](std::size_t d) {
            if (++matches_[d] > max_matches_) {
                within_limits = false;
                return;
            }
            for (std::size_t owner : queries_.owners(d)) {
                stats_.counters.add(obs::Counter::kSubscriberFanout);
                sink_.on_match(owner, offset);
            }
        });
        return within_limits;
    }

private:
    const MultiQuery& queries_;
    const ProductAutomaton& product_;
    MultiSink& sink_;
    RunStats& stats_;
    const std::size_t max_matches_;
    /** Per-DISTINCT-query match tallies (limit enforcement). */
    std::vector<std::size_t> matches_;
};

}  // namespace

ProductDescendEngine::ProductDescendEngine(MultiQuery queries,
                                           EngineOptions options, int max_states)
    : queries_(std::move(queries)),
      product_(QuerySetCompiler::compile(queries_, max_states)),
      options_(options),
      kernels_(&simd::kernels_for(options.simd))
{
}

std::string ProductDescendEngine::name() const
{
    return std::string("descend-product-") + kernels_->name;
}

RunStats ProductDescendEngine::dispatch(PaddedView document, MultiSink& sink,
                                        const RunBudget& budget) const
{
    RunStats stats = run_document(
        document, *kernels_, options_, budget, queries_.all_root_accepting(),
        [&](std::size_t start) {
            for (std::size_t i = 0; i < queries_.size(); ++i) {
                sink.on_match(i, start);
            }
        },
        product_.head_skip_label().has_value() && options_.head_skipping,
        [&](RunStats& run_stats, const RunBudget* budget_ptr) {
            return Simulation<ProductAutomaton, SubscriberReporter>(
                product_, queries_.alphabet(), queries_.any_counting(),
                options_, run_stats, budget_ptr, queries_, product_, options_,
                sink, run_stats);
        });
    stats.counters.raise(obs::Counter::kProductStates,
                         static_cast<std::uint64_t>(product_.num_states()));
    // Every skip the simulation takes over the union automaton is
    // certified for the whole set by one product state.
    stats.counters.add(obs::Counter::kProductSkips,
                       stats.child_skips() + stats.sibling_skips() +
                           stats.within_skips());
    return stats;
}

}  // namespace descend::multi
