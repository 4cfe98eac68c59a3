/**
 * @file
 * The fused multi-query factory and its deprecated backend selector.
 *
 * ProductDescendEngine (product_engine.h) is the one multi-query engine:
 * it runs every set, filter-carrying sets and sets over the product state
 * cap included. FusedBackend and the `backend` parameter of
 * make_fused_engine are kept only so that existing callers (the `--fused`
 * flag, the repository benchmark) still compile and parse; every value
 * builds the same engine.
 */
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "descend/multi/product_engine.h"

namespace descend::multi {

/** Deprecated: there is one fused engine, and every value selects it. */
enum class FusedBackend {
    kAuto,
    kLanes,
    kProduct,
};

/** Parses a --fused flag value ("auto" | "lanes" | "product"). */
std::optional<FusedBackend> parse_fused_backend(std::string_view text);

/** Builds the fused engine over an already-compiled set. @p backend is
 *  deprecated and ignored. */
std::unique_ptr<ProductDescendEngine> make_fused_engine(
    MultiQuery queries, EngineOptions options = {},
    FusedBackend backend = FusedBackend::kAuto);

/** Convenience: parse + compile + build. @p backend is deprecated and
 *  ignored. */
std::unique_ptr<ProductDescendEngine> make_fused_engine(
    const std::vector<std::string>& query_texts, EngineOptions options = {},
    FusedBackend backend = FusedBackend::kAuto);

}  // namespace descend::multi
