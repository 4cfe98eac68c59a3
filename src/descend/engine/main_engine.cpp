#include "descend/engine/main_engine.h"

#include <optional>

#include "descend/engine/simulation.h"
#include "descend/project/filter_eval.h"

namespace descend {
namespace {

/**
 * The single-query reporter of the shared Simulation: a trailing filter
 * predicate first (a rejected candidate is not a match and does not count
 * toward the limit, mirroring the DOM oracle, which never reports it at
 * all), then EngineLimits::max_match_count, then the sink. Templated over
 * the sink so the counting path is fully monomorphized (as rsonpath's
 * generic recorder is).
 */
template <typename Sink>
class QueryReporter {
public:
    /** @param document / @p kernels the run's view and kernel tier — the
     *  filter gate extends candidate spans over them. */
    QueryReporter(const automaton::CompiledQuery& query,
                  const EngineOptions& options, Sink& sink, RunStats& stats,
                  PaddedView document, const simd::Kernels& kernels)
        : sink_(sink), max_matches_(options.limits.max_match_count)
    {
        if (const query::FilterExpr* filter = query.filter()) {
            filter_gate_.emplace(*filter, document, kernels, &stats.counters);
        }
    }

    bool report(int /*accepting_state*/, std::size_t offset)
    {
        if (filter_gate_.has_value() && !filter_gate_->admits(offset)) {
            return true;
        }
        if (++matches_ > max_matches_) {
            return false;
        }
        sink_.on_match(offset);
        return true;
    }

private:
    Sink& sink_;
    const std::size_t max_matches_;
    std::size_t matches_ = 0;
    /** Present iff the query carries a trailing filter predicate. */
    std::optional<project::FilterGate> filter_gate_;
};

}  // namespace

DescendEngine::DescendEngine(automaton::CompiledQuery query, EngineOptions options)
    : query_(std::move(query)),
      options_(options),
      kernels_(&simd::kernels_for(options.simd))
{
}

std::string DescendEngine::name() const
{
    return std::string("descend-") + kernels_->name;
}

template <typename Sink>
RunStats DescendEngine::dispatch(PaddedView document, Sink& sink,
                                 const RunBudget& budget) const
{
    return run_document(
        document, *kernels_, options_, budget, query_.root_accepting(),
        [&](std::size_t start) { sink.on_match(start); },
        query_.head_skip_label().has_value() && options_.head_skipping,
        [&](RunStats& stats, const RunBudget* budget_ptr) {
            return Simulation<automaton::CompiledQuery, QueryReporter<Sink>>(
                query_, query_.alphabet(), query_.has_indices(), options_,
                stats, budget_ptr, query_, options_, sink, stats, document,
                *kernels_);
        });
}

EngineStatus DescendEngine::run(PaddedView document, MatchSink& sink) const
{
    return dispatch(document, sink, options_.budget).status;
}

RunStats DescendEngine::run_with_stats(PaddedView document, MatchSink& sink) const
{
    return run_with_stats(document, sink, options_.budget);
}

RunStats DescendEngine::run_with_stats(PaddedView document, MatchSink& sink,
                                       const RunBudget& budget) const
{
    // A stopwatch rather than a scoped timer: the timing must land in the
    // returned object, and a destructor firing after the return-value copy
    // would miss it.
    obs::PhaseStopwatch watch;
    RunStats stats = dispatch(document, sink, budget);
    stats.timings.add(obs::Phase::kAutomaton, watch.elapsed_ns());
    return stats;
}

namespace {

/** Concrete counting sink: no virtual dispatch inside the hot loop. */
struct DirectCounter {
    std::size_t count = 0;
    void on_match(std::size_t) { ++count; }
};

}  // namespace

CountResult DescendEngine::count_checked(PaddedView document) const
{
    DirectCounter counter;
    CountResult result;
    result.status = dispatch(document, counter, options_.budget).status;
    result.count = counter.count;
    return result;
}

}  // namespace descend
