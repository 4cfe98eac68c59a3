#include "descend/multi/multi_stream.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "descend/stream/record_scheduler.h"

namespace descend::multi {
namespace {

/** One query's intra-record match offsets. */
struct QueryMatches {
    std::size_t query = 0;
    std::vector<std::size_t> offsets;
};

/** A record's matches: only the queries that matched, ascending. */
using RecordMatches = std::vector<QueryMatches>;

/**
 * A MultiSink a worker reuses across records (the set counterpart of
 * ReusableOffsetSink): reset() clears only the queries the last run
 * touched and copy_to() copies out only those, so a record that matches
 * nothing costs no allocation however large the set is. Copies rather
 * than moves: the buffered outcome is exact-size and the sink keeps its
 * capacity.
 */
class ReusableMultiSink final : public MultiSink {
public:
    explicit ReusableMultiSink(std::size_t num_queries) : offsets_(num_queries) {}

    void on_match(std::size_t query_index, std::size_t offset) override
    {
        std::vector<std::size_t>& offsets = offsets_[query_index];
        if (offsets.empty()) {
            touched_.push_back(query_index);
        }
        offsets.push_back(offset);
    }

    void reset() noexcept
    {
        for (std::size_t q : touched_) {
            offsets_[q].clear();
        }
        touched_.clear();
    }

    /** Copies the collected matches into @p out in query order. */
    void copy_to(RecordMatches& out)
    {
        std::sort(touched_.begin(), touched_.end());
        out.reserve(touched_.size());
        for (std::size_t q : touched_) {
            out.push_back({q, offsets_[q]});
        }
    }

private:
    std::vector<std::vector<std::size_t>> offsets_;
    /** Queries with at least one match since the last reset. */
    std::vector<std::size_t> touched_;
};

/** One worker's record runner over the executor's fused engine. */
class RecordRunner {
public:
    explicit RecordRunner(const MultiStreamExecutor& executor)
        : executor_(&executor),
          collector_(executor.engine().query_set().size())
    {
    }

    RunStats operator()(PaddedView record, const RunBudget* budget, bool scalar,
                        RecordMatches& matches)
    {
        const FusedEngine& engine = scalar ? scalar_engine() : executor_->engine();
        collector_.reset();
        RunStats stats = budget != nullptr
                             ? engine.run_with_stats(record, collector_, *budget)
                             : engine.run_with_stats(record, collector_);
        if (stats.status.ok()) {
            collector_.copy_to(matches);
        }
        return stats;
    }

private:
    /** Scalar-tier fused engine for kRetryScalar, built on first use (same
     *  backend selection as the primary engine). */
    const FusedEngine& scalar_engine()
    {
        if (scalar_engine_ == nullptr) {
            const MultiQuery& set = executor_->engine().query_set();
            EngineOptions scalar_options = executor_->options().engine;
            scalar_options.simd = simd::Level::scalar;
            std::vector<query::Query> sources;
            sources.reserve(set.size());
            for (std::size_t q = 0; q < set.size(); ++q) {
                sources.push_back(set.source(q));
            }
            scalar_engine_ = make_fused_engine(MultiQuery::compile(sources),
                                               scalar_options,
                                               executor_->backend());
        }
        return *scalar_engine_;
    }

    const MultiStreamExecutor* executor_;
    ReusableMultiSink collector_;
    std::unique_ptr<FusedEngine> scalar_engine_;
};

}  // namespace

stream::StreamResult MultiStreamExecutor::run(PaddedView input,
                                              MultiStreamSink& sink) const
{
    const simd::Kernels& kernels = simd::kernels_for(options_.engine.simd);
    obs::PhaseStopwatch watch;
    std::vector<stream::RecordSpan> records = stream::split_records(input, kernels);
    std::uint64_t split_ns = watch.elapsed_ns();
    stream::StreamResult result = run_records(input, records, sink);
    result.timings.add(obs::Phase::kSplit, split_ns);
    return result;
}

stream::StreamResult MultiStreamExecutor::run_records(
    PaddedView input, const std::vector<stream::RecordSpan>& records,
    MultiStreamSink& sink) const
{
    // Per record the queries replay in set order, offsets ascending
    // within a query.
    using Outcome = stream::RecordOutcome<RecordMatches>;
    return stream::schedule_records<RecordMatches>(
        input, records, options_, [this] { return RecordRunner(*this); },
        [&sink](const Outcome& outcome) -> std::size_t {
            if (!outcome.status.ok()) {
                sink.on_record_error(outcome.record, outcome.status);
                return 0;
            }
            std::size_t delivered = 0;
            for (const QueryMatches& query : outcome.matches) {
                for (std::size_t offset : query.offsets) {
                    sink.on_match(query.query, outcome.record, offset);
                }
                delivered += query.offsets.size();
            }
            return delivered;
        });
}

}  // namespace descend::multi
