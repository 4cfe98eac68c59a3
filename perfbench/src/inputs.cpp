#include "inputs.h"

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>

#include "descend/workloads/datasets.h"

namespace perfbench {

using descend::serve::RequestMode;

const std::vector<DocQuery>& doc_skip_queries()
{
    static const std::vector<DocQuery> queries = {
        {"Ts", "twitter_small", "$.search_metadata.count"},
        {"W2", "walmart", "$.items.*.name"},
        {"W2r", "walmart", "$..name"},
        {"B3", "bestbuy", "$.products.*.videoChapters"},
        {"G2r", "googlemap", "$..available_travel_modes"},
        {"Wi", "wikimedia", "$.*.claims.P150.*.mainsnak.property"},
        {"O1r", "openfood", "$..vitamins_tags"},
    };
    return queries;
}

const std::vector<DocQuery>& doc_dense_queries()
{
    static const std::vector<DocQuery> queries = {
        {"A1", "ast", "$..decl.name"},
        {"A2", "ast", "$..inner..inner..type.qualType"},
        {"B1", "bestbuy", "$.products.*.categoryPath.*.id"},
        {"C1", "crossref", "$..DOI"},
        {"C2", "crossref", "$.items.*.author.*.affiliation.*.name"},
        {"N2", "nspl", "$.data.*.*.*"},
    };
    return queries;
}

const std::vector<DocQuery>& doc_queries(const std::string& workload)
{
    if (workload == "doc-skip") {
        return doc_skip_queries();
    }
    if (workload == "doc-dense") {
        return doc_dense_queries();
    }
    throw std::runtime_error("not a doc workload: " + workload);
}

std::vector<std::string> datasets_of(const std::vector<DocQuery>& queries)
{
    std::vector<std::string> names;
    for (const DocQuery& q : queries) {
        if (std::find(names.begin(), names.end(), q.dataset) == names.end()) {
            names.push_back(q.dataset);
        }
    }
    return names;
}

std::string doc_path(const std::string& dir, const std::string& dataset)
{
    return dir + "/" + dataset + ".json";
}

std::vector<std::string> stream_product_set()
{
    // Every subscription walks the `$.products.*` spine; ten reach real
    // fields, the rest are tenant fields that never match, as in a
    // subscription service where most filters are idle.
    static const char* kReal[] = {
        "sku", "name", "salePrice", "onSale", "manufacturer",
        "shippingCost", "customerReviewAverage", "videoChapters",
    };
    std::vector<std::string> queries;
    for (const char* field : kReal) {
        queries.push_back(std::string("$.products.*.") + field);
    }
    queries.push_back("$.products.*.categoryPath.*.id");
    queries.push_back("$.products.*.categoryPath.*.name");
    for (std::size_t i = queries.size(); i < 64; ++i) {
        queries.push_back("$.products.*.tenantField" + std::to_string(i));
    }
    return queries;
}

std::vector<std::string> stream_lanes_set()
{
    std::vector<std::string> queries = stream_product_set();
    queries.push_back("$.products[?(@.salePrice > 1500)]");
    return queries;
}

StreamPlan plan_stream(std::uint64_t seed)
{
    // 32 distinct bestbuy records of 4-64 KiB, each written many times in
    // a seed-shuffled order until the stream reaches kStreamBytes.
    StreamPlan plan;
    constexpr std::size_t kVariants = 32;
    std::size_t variant_bytes = 0;
    for (std::size_t i = 0; i < kVariants; ++i) {
        const std::size_t target = 4096 + i * ((60u << 10) / (kVariants - 1));
        plan.variants.push_back(descend::workloads::generate("bestbuy", target));
        variant_bytes += plan.variants.back().size() + 1;
    }
    const std::size_t rounds = (kStreamBytes + variant_bytes - 1) / variant_bytes;
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::uint32_t v = 0; v < kVariants; ++v) {
            plan.order.push_back(v);
        }
    }
    std::mt19937_64 rng(seed);
    std::shuffle(plan.order.begin(), plan.order.end(), rng);
    return plan;
}

std::string stream_path(const std::string& dir)
{
    return dir + "/stream.ndjson";
}

namespace {

struct PoolDataset {
    const char* name;
    std::vector<std::string> queries;  ///< first four form the multi set
};

const std::vector<PoolDataset>& pool_datasets()
{
    static const std::vector<PoolDataset> datasets = {
        {"walmart",
         {"$.items.*.name", "$.items.*.bestMarketplacePrice.price", "$..salePrice",
          "$..name", "$.items[?(@.salePrice > 300)]"}},
        {"bestbuy",
         {"$.products.*.sku", "$.products.*.categoryPath.*.id", "$..videoChapters",
          "$..name"}},
        {"twitter",
         {"$.*.text", "$.*.entities.urls.*.url", "$..screen_name", "$..hashtags..text"}},
        {"crossref",
         {"$..DOI", "$.items.*.author.*.affiliation.*.name", "$.items.*.title",
          "$..ORCID"}},
        {"googlemap",
         {"$.*.routes.*.legs.*.steps.*.distance.text", "$..available_travel_modes",
          "$..duration.value", "$.*.routes.*.summary"}},
        {"openfood",
         {"$.products.*.vitamins_tags", "$..ingredients_tags", "$..energy",
          "$.products.*.product_name"}},
    };
    return datasets;
}

}  // namespace

ServePool build_serve_pool()
{
    ServePool pool;
    static const std::size_t kSizes[] = {4u << 10, 8u << 10, 16u << 10, 32u << 10,
                                         64u << 10};
    for (const PoolDataset& dataset : pool_datasets()) {
        for (std::size_t size : kSizes) {
            const std::size_t body = pool.bodies.size();
            pool.bodies.push_back(descend::workloads::generate(dataset.name, size));
            for (const std::string& query : dataset.queries) {
                pool.templates.push_back({RequestMode::kSingle, 0, query, body});
            }
            pool.templates.push_back({RequestMode::kSingle,
                                      descend::serve::kWantOffsets,
                                      dataset.queries[0], body});
            pool.templates.push_back({RequestMode::kSingle,
                                      descend::serve::kWantValues,
                                      dataset.queries[1], body});
            std::string set;
            for (std::size_t q = 0; q < 4; ++q) {
                set += (q == 0 ? "" : "\n") + dataset.queries[q];
            }
            pool.templates.push_back({RequestMode::kMulti, 0, set, body});
        }
    }
    // NDJSON bodies: batches of 16-64 bestbuy records (50-290 KB).
    for (std::size_t n = 16; n <= 64; n *= 2) {
        std::string stream;
        for (std::size_t r = 0; r < n; ++r) {
            stream += descend::workloads::generate("bestbuy", 2048 + 64 * r);
            stream += '\n';
        }
        const std::size_t body = pool.bodies.size();
        pool.bodies.push_back(std::move(stream));
        pool.templates.push_back({RequestMode::kNdjson, 0, "$.products.*.sku", body});
        pool.templates.push_back({RequestMode::kNdjson,
                                  descend::serve::kWantOffsets,
                                  "$.products.*.categoryPath.*.id", body});
    }
    return pool;
}

void write_file(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out) {
        throw std::runtime_error("cannot write " + path);
    }
}

std::string read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("cannot read " + path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

}  // namespace perfbench
