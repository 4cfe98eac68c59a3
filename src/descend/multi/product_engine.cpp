#include "descend/multi/product_engine.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "descend/engine/simulation.h"
#include "descend/project/filter_eval.h"
#include "descend/util/errors.h"

namespace descend::multi {
namespace {

/**
 * Compiles @p ids as one group, or — when that exceeds @p max_states —
 * each half of them, recursively. A single query that exceeds it alone
 * rethrows.
 */
void compile_groups(const MultiQuery& set, const std::vector<int>& ids,
                    int max_states, std::vector<ProductAutomaton>& groups)
{
    try {
        groups.push_back(QuerySetCompiler::compile(set, ids, max_states));
        return;
    } catch (const LimitError&) {
        if (ids.size() == 1) {
            throw;
        }
    }
    const auto middle = ids.begin() + static_cast<std::ptrdiff_t>(ids.size() / 2);
    compile_groups(set, std::vector<int>(ids.begin(), middle), max_states, groups);
    compile_groups(set, std::vector<int>(middle, ids.end()), max_states, groups);
}

/** One product automaton for @p set, or sequential groups when the whole
 *  set exceeds @p max_states. */
std::vector<ProductAutomaton> compile_groups(const MultiQuery& set, int max_states)
{
    // Canonical order puts queries with shared prefixes next to each
    // other, so halves keep most of the prefix sharing.
    std::vector<std::string> texts;
    texts.reserve(set.num_distinct());
    for (std::size_t d = 0; d < set.num_distinct(); ++d) {
        texts.push_back(set.distinct(d).source().to_string());
    }
    std::vector<int> ids(set.num_distinct());
    std::iota(ids.begin(), ids.end(), 0);
    std::sort(ids.begin(), ids.end(), [&](int a, int b) {
        return texts[static_cast<std::size_t>(a)] < texts[static_cast<std::size_t>(b)];
    });
    std::vector<ProductAutomaton> groups;
    compile_groups(set, ids, max_states, groups);
    return groups;
}

/**
 * Turns subscriber sets into sink calls for one run (every pass of a
 * grouped run): distinct queries in ascending id order (bitset scan), then
 * each one's owners in ascending input order — the report order of N
 * independent runs. A distinct query with a trailing filter first passes
 * its gate; a rejected candidate is not a match and does not count toward
 * the limit (the DOM oracle never reports it at all). The match limit
 * applies per distinct query; duplicates share the counter and so trip it
 * identically to their own independent runs.
 */
class SubscriberReporter {
public:
    SubscriberReporter(const MultiQuery& queries, bool has_filters,
                       const EngineOptions& options, MultiSink& sink,
                       obs::Counters& counters, PaddedView document,
                       const simd::Kernels& kernels)
        : queries_(queries),
          sink_(sink),
          counters_(counters),
          max_matches_(options.limits.max_match_count),
          matches_(queries.num_distinct(), 0)
    {
        if (has_filters) {
            gates_.resize(queries.num_distinct());
            for (std::size_t d = 0; d < queries.num_distinct(); ++d) {
                if (const query::FilterExpr* filter = queries.distinct(d).filter()) {
                    gates_[d] = std::make_unique<project::FilterGate>(
                        *filter, document, kernels, &counters);
                }
            }
        }
    }

    bool report(const SubscriberSet& subscribers, std::size_t offset)
    {
        bool within_limits = true;
        subscribers.for_each([&](std::size_t d) {
            if (!gates_.empty() && gates_[d] != nullptr &&
                !gates_[d]->admits(offset)) {
                return;
            }
            if (++matches_[d] > max_matches_) {
                within_limits = false;
                return;
            }
            for (std::size_t owner : queries_.owners(d)) {
                counters_.add(obs::Counter::kSubscriberFanout);
                sink_.on_match(owner, offset);
            }
        });
        return within_limits;
    }

private:
    const MultiQuery& queries_;
    MultiSink& sink_;
    obs::Counters& counters_;
    const std::size_t max_matches_;
    /** Per-DISTINCT-query match tallies (limit enforcement). */
    std::vector<std::size_t> matches_;
    /** Per-distinct-query filter gates (null without a filter); empty
     *  when the set has no filter at all. */
    std::vector<std::unique_ptr<project::FilterGate>> gates_;
};

/** The shared Simulation's reporter for one group's pass: resolves the
 *  group's accepting state to its subscriber set. */
struct GroupReporter {
    const ProductAutomaton& group;
    SubscriberReporter& subscribers;

    bool report(int accepting_state, std::size_t offset)
    {
        return subscribers.report(
            group.accept_set(group.accept_set_id(accepting_state)), offset);
    }
};

}  // namespace

ProductDescendEngine::ProductDescendEngine(MultiQuery queries,
                                           EngineOptions options, int max_states)
    : queries_(std::move(queries)),
      groups_(compile_groups(queries_, max_states)),
      options_(options),
      kernels_(&simd::kernels_for(options.simd))
{
    for (std::size_t d = 0; d < queries_.num_distinct(); ++d) {
        has_filters_ = has_filters_ || queries_.distinct(d).filter() != nullptr;
    }
}

ProductDescendEngine::ProductDescendEngine(const ProductDescendEngine& compiled,
                                           EngineOptions options)
    : queries_(compiled.queries_),
      groups_(compiled.groups_),
      has_filters_(compiled.has_filters_),
      options_(options),
      kernels_(&simd::kernels_for(options.simd))
{
}

std::string ProductDescendEngine::name() const
{
    return std::string("descend-product-") + kernels_->name;
}

EngineStatus ProductDescendEngine::run(PaddedView document, MultiSink& sink) const
{
    return dispatch(document, sink, options_.budget).status;
}

RunStats ProductDescendEngine::run_with_stats(PaddedView document,
                                              MultiSink& sink) const
{
    return run_with_stats(document, sink, options_.budget);
}

RunStats ProductDescendEngine::run_with_stats(PaddedView document,
                                              MultiSink& sink,
                                              const RunBudget& budget) const
{
    // A stopwatch, as in DescendEngine::run_with_stats: the timing must
    // land in the returned object.
    obs::PhaseStopwatch watch;
    RunStats stats = dispatch(document, sink, budget);
    stats.timings.add(obs::Phase::kAutomaton, watch.elapsed_ns());
    return stats;
}

RunStats ProductDescendEngine::dispatch(PaddedView document, MultiSink& sink,
                                        const RunBudget& budget) const
{
    RunStats stats;
    SubscriberReporter reporter(queries_, has_filters_, options_, sink,
                                stats.counters, document, *kernels_);
    for (const ProductAutomaton& group : groups_) {
        RunStats pass = run_document(
            document, *kernels_, options_, budget,
            queries_.all_root_accepting(),
            [&](std::size_t start) {
                for (std::size_t i = 0; i < queries_.size(); ++i) {
                    sink.on_match(i, start);
                }
            },
            group.head_skip_label().has_value() && options_.head_skipping,
            [&](RunStats& run_stats, const RunBudget* budget_ptr) {
                return Simulation<ProductAutomaton, GroupReporter>(
                    group, queries_.alphabet(), group.has_indices(), options_,
                    run_stats, budget_ptr, group, reporter);
            });
        stats.counters.merge(pass.counters);
        stats.status = pass.status;
        if (!stats.status.ok()) {
            break;
        }
    }
    std::uint64_t states = 0;
    for (const ProductAutomaton& group : groups_) {
        states += static_cast<std::uint64_t>(group.num_states());
    }
    stats.counters.raise(obs::Counter::kProductStates, states);
    // Every skip the simulation takes over the union automaton is
    // certified for the whole group by one product state.
    stats.counters.add(obs::Counter::kProductSkips,
                       stats.child_skips() + stats.sibling_skips() +
                           stats.within_skips());
    return stats;
}

}  // namespace descend::multi
