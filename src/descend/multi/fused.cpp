#include "descend/multi/fused.h"

#include <utility>

#include "descend/multi/multi_engine.h"
#include "descend/multi/product_engine.h"
#include "descend/util/errors.h"

namespace descend::multi {

EngineStatus FusedEngine::run(PaddedView document, MultiSink& sink) const
{
    return dispatch(document, sink, options().budget).status;
}

RunStats FusedEngine::run_with_stats(PaddedView document, MultiSink& sink) const
{
    return run_with_stats(document, sink, options().budget);
}

RunStats FusedEngine::run_with_stats(PaddedView document, MultiSink& sink,
                                     const RunBudget& budget) const
{
    // A stopwatch, as in DescendEngine::run_with_stats: the timing must
    // land in the returned object.
    obs::PhaseStopwatch watch;
    RunStats stats = dispatch(document, sink, budget);
    stats.timings.add(obs::Phase::kAutomaton, watch.elapsed_ns());
    return stats;
}

std::optional<FusedBackend> parse_fused_backend(std::string_view text)
{
    if (text == "auto") {
        return FusedBackend::kAuto;
    }
    if (text == "lanes") {
        return FusedBackend::kLanes;
    }
    if (text == "product") {
        return FusedBackend::kProduct;
    }
    return std::nullopt;
}

std::string_view fused_backend_name(FusedBackend backend) noexcept
{
    switch (backend) {
        case FusedBackend::kAuto: return "auto";
        case FusedBackend::kLanes: return "lanes";
        case FusedBackend::kProduct: return "product";
    }
    return "auto";
}

std::unique_ptr<FusedEngine> make_fused_engine(MultiQuery queries,
                                               EngineOptions options,
                                               FusedBackend backend)
{
    switch (backend) {
        case FusedBackend::kLanes:
            return std::make_unique<MultiDescendEngine>(std::move(queries),
                                                        options);
        case FusedBackend::kProduct:
            return std::make_unique<ProductDescendEngine>(std::move(queries),
                                                          options);
        case FusedBackend::kAuto:
            break;
    }
    // auto: prefer the product automaton; a set whose subset construction
    // trips the state cap falls back to lanes, which always compile.
    try {
        return std::make_unique<ProductDescendEngine>(queries, options);
    } catch (const LimitError&) {
        return std::make_unique<MultiDescendEngine>(std::move(queries), options);
    }
}

std::unique_ptr<FusedEngine> make_fused_engine(
    const std::vector<std::string>& query_texts, EngineOptions options,
    FusedBackend backend)
{
    return make_fused_engine(MultiQuery::compile(query_texts), options, backend);
}

}  // namespace descend::multi
