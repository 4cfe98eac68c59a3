#include "descend/stream/stream_executor.h"

#include <memory>
#include <vector>

#include "descend/engine/scratch.h"
#include "descend/stream/record_scheduler.h"

namespace descend::stream {
namespace {

/**
 * One worker's record runner. Its scratch collectors keep their buffer
 * capacity across every record the worker runs, so the steady state
 * allocates only for records that actually match (the copy into the
 * outcome).
 */
class RecordRunner {
public:
    explicit RecordRunner(const StreamExecutor& executor) : executor_(&executor) {}

    RunStats operator()(PaddedView record, const RunBudget* budget, bool scalar,
                        std::vector<std::size_t>& matches)
    {
        const DescendEngine& engine = scalar ? scalar_engine() : executor_->engine();
        ReusableOffsetSink& sink =
            scalar ? scratch_.retry_matches : scratch_.matches;
        sink.reset();
        RunStats stats = budget != nullptr
                             ? engine.run_with_stats(record, sink, *budget)
                             : engine.run_with_stats(record, sink);
        if (stats.status.ok()) {
            matches.assign(sink.offsets().begin(), sink.offsets().end());
        }
        return stats;
    }

private:
    /** Scalar-tier engine for kRetryScalar, built on first use (the
     *  failure path): same query and options, scalar kernels. */
    const DescendEngine& scalar_engine()
    {
        if (scalar_engine_ == nullptr) {
            EngineOptions scalar_options = executor_->options().engine;
            scalar_options.simd = simd::Level::scalar;
            scalar_engine_ = std::make_unique<DescendEngine>(
                automaton::CompiledQuery::compile(
                    executor_->engine().compiled_query().source()),
                scalar_options);
        }
        return *scalar_engine_;
    }

    const StreamExecutor* executor_;
    RunScratch scratch_;
    std::unique_ptr<DescendEngine> scalar_engine_;
};

}  // namespace

StreamResult StreamExecutor::run(PaddedView input, StreamSink& sink) const
{
    const simd::Kernels& kernels = simd::kernels_for(options_.engine.simd);
    obs::PhaseStopwatch watch;
    std::vector<RecordSpan> records = split_records(input, kernels);
    std::uint64_t split_ns = watch.elapsed_ns();
    StreamResult result = run_records(input, records, sink);
    result.timings.add(obs::Phase::kSplit, split_ns);
    return result;
}

StreamResult StreamExecutor::run_records(PaddedView input,
                                         const std::vector<RecordSpan>& records,
                                         StreamSink& sink) const
{
    using Outcome = RecordOutcome<std::vector<std::size_t>>;
    return schedule_records<std::vector<std::size_t>>(
        input, records, options_, [this] { return RecordRunner(*this); },
        [&sink](const Outcome& outcome) -> std::size_t {
            if (!outcome.status.ok()) {
                sink.on_record_error(outcome.record, outcome.status);
                return 0;
            }
            for (std::size_t offset : outcome.matches) {
                sink.on_match(outcome.record, offset);
            }
            return outcome.matches.size();
        });
}

}  // namespace descend::stream
