#include "descend/multi/fused.h"

#include <utility>

namespace descend::multi {

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

std::unique_ptr<ProductDescendEngine> make_fused_engine(MultiQuery queries,
                                                        EngineOptions options,
                                                        FusedBackend)
{
    return std::make_unique<ProductDescendEngine>(std::move(queries), options);
}

std::unique_ptr<ProductDescendEngine> make_fused_engine(
    const std::vector<std::string>& query_texts, EngineOptions options,
    FusedBackend backend)
{
    return make_fused_engine(MultiQuery::compile(query_texts), options, backend);
}

}  // namespace descend::multi
