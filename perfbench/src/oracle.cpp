/**
 * @file
 * Set-up and the correctness oracles.
 *
 * setup writes a workload's inputs and manifest.json (read by run.py).
 * oracle computes the expected answers the runs are checked against:
 * doc-* counts and sampled match offsets from the DOM baseline (one parse
 * per dataset, cached by content hash since it takes seconds), and
 * stream-multi per-query counts from independent per-record DescendEngine
 * runs. It prints the path of each file of answers, one per line.
 */
#include "perfbench.h"

#include <filesystem>
#include <stdexcept>

#include "descend/baselines/dom_engine.h"
#include "descend/engine/main_engine.h"
#include "descend/json/dom.h"
#include "descend/workloads/datasets.h"

namespace perfbench {

namespace {

/** Offsets of up to @p n matches spread evenly over the match list. */
std::vector<std::pair<std::size_t, std::size_t>> sample_offsets(
    const std::vector<std::size_t>& offsets, std::size_t n)
{
    std::vector<std::pair<std::size_t, std::size_t>> sample;
    if (offsets.empty()) {
        return sample;
    }
    const std::size_t step = std::max<std::size_t>(1, offsets.size() / n);
    for (std::size_t i = 0; i < offsets.size() && sample.size() < n; i += step) {
        sample.emplace_back(i, offsets[i]);
    }
    sample.emplace_back(offsets.size() - 1, offsets.back());
    return sample;
}

std::string hex(std::uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

}  // namespace

int cmd_setup(const Args& args)
{
    const std::string workload = args.get("workload");
    const std::string dir = args.get("dir");
    const std::uint64_t seed = args.get_u64("seed", 1);
    std::filesystem::create_directories(dir);

    JsonBuilder manifest(4096);
    manifest.begin_object();
    field(manifest, "workload", workload);
    field(manifest, "seed", seed);
    if (workload == "doc-skip" || workload == "doc-dense") {
        const auto& queries = doc_queries(workload);
        manifest.key("datasets");
        manifest.begin_object();
        for (const std::string& dataset : datasets_of(queries)) {
            const std::string bytes = descend::workloads::generate(dataset, kDocBytes);
            write_file(doc_path(dir, dataset), bytes);
            manifest.key(dataset);
            manifest.begin_object();
            field(manifest, "path", doc_path(dir, dataset));
            field(manifest, "bytes", static_cast<std::uint64_t>(bytes.size()));
            field(manifest, "hash", hex(fnv1a(bytes)));
            manifest.end_object();
        }
        manifest.end_object();
        manifest.key("queries");
        manifest.begin_array();
        for (const DocQuery& q : queries) {
            manifest.begin_object();
            field(manifest, "id", q.id);
            field(manifest, "dataset", q.dataset);
            field(manifest, "query", q.query);
            manifest.end_object();
        }
        manifest.end_array();
    } else if (workload == "stream-multi") {
        const StreamPlan plan = plan_stream(seed);
        std::string stream;
        for (std::uint32_t v : plan.order) {
            stream += plan.variants[v];
            stream += '\n';
        }
        write_file(stream_path(dir), stream);
        field(manifest, "stream", stream_path(dir));
        field(manifest, "bytes", static_cast<std::uint64_t>(stream.size()));
        field(manifest, "records", static_cast<std::uint64_t>(plan.order.size()));
        manifest.key("sets");
        manifest.begin_object();
        for (const auto& [name, set] :
             {std::pair{"product", stream_product_set()},
              std::pair{"lanes", stream_lanes_set()}}) {
            std::string text;
            for (const std::string& q : set) {
                text += q + "\n";
            }
            const std::string path = dir + "/queries_" + name + ".txt";
            write_file(path, text);
            manifest.key(name);
            manifest.begin_object();
            field(manifest, "path", path);
            field(manifest, "queries", static_cast<std::uint64_t>(set.size()));
            manifest.end_object();
        }
        manifest.end_object();
    } else {
        throw std::runtime_error("unknown workload: " + workload);
    }
    manifest.end_object();
    write_file(dir + "/manifest.json", manifest.take() + "\n");
    return 0;
}

int cmd_oracle(const Args& args)
{
    const std::string workload = args.get("workload");
    const std::string dir = args.get("dir");
    const std::string cache = args.get("cache");
    std::filesystem::create_directories(cache);

    if (workload == "stream-multi") {
        // Per-record oracle: every distinct record run through its own
        // DescendEngine per query, scaled by how often the record occurs.
        const StreamPlan plan = plan_stream(args.get_u64("seed", 1));
        std::vector<std::size_t> occurrences(plan.variants.size(), 0);
        for (std::uint32_t v : plan.order) {
            ++occurrences[v];
        }
        JsonBuilder out(8192);
        out.begin_object();
        for (const std::string& query : stream_lanes_set()) {
            const auto engine = descend::DescendEngine::for_query(query);
            std::uint64_t total = 0;
            for (std::size_t v = 0; v < plan.variants.size(); ++v) {
                const descend::PaddedString record(plan.variants[v]);
                const descend::CountResult result = engine.count_checked(record);
                if (!result.ok()) {
                    throw std::runtime_error("oracle record failed: " + query);
                }
                total += result.count * occurrences[v];
            }
            field(out, query, total);
        }
        out.end_object();
        write_file(dir + "/oracle.json", out.take() + "\n");
        std::printf("%s\n", (dir + "/oracle.json").c_str());
        return 0;
    }

    // doc-*: one DOM parse per dataset, every query of the workload on it.
    // A cached file is keyed by the dataset bytes and by the ids and texts
    // of the queries run on it, so editing a query recomputes its answers.
    const auto& queries = doc_queries(workload);
    for (const std::string& dataset : datasets_of(queries)) {
        const std::string bytes = read_file(doc_path(dir, dataset));
        std::string query_list;
        for (const DocQuery& q : queries) {
            if (q.dataset == dataset) {
                query_list += q.id + '\t' + q.query + '\n';
            }
        }
        const std::string cached = cache + "/" + dataset + "-" + hex(fnv1a(bytes)) + "-" +
                                   hex(fnv1a(query_list)) + ".json";
        std::printf("%s\n", cached.c_str());
        if (std::filesystem::exists(cached)) {
            continue;
        }
        const descend::json::Document document = descend::json::parse(bytes);
        JsonBuilder out(4096);
        out.begin_object();
        for (const DocQuery& q : queries) {
            if (q.dataset != dataset) {
                continue;
            }
            descend::OffsetSink sink;
            descend::DomEngine(descend::query::Query::parse(q.query))
                .evaluate(document.root(), sink);
            out.key(q.id);
            out.begin_object();
            field(out, "count", static_cast<std::uint64_t>(sink.offsets().size()));
            out.key("sample");
            out.begin_array();
            for (const auto& [index, offset] : sample_offsets(sink.offsets(), 16)) {
                out.begin_array();
                out.number(static_cast<std::uint64_t>(index));
                out.number(static_cast<std::uint64_t>(offset));
                out.end_array();
            }
            out.end_array();
            out.end_object();
        }
        out.end_object();
        write_file(cached + ".tmp", out.take() + "\n");
        std::filesystem::rename(cached + ".tmp", cached);
    }
    return 0;
}

}  // namespace perfbench
