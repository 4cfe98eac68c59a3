/**
 * @file
 * The traced run: every layer of src/descend timed from outside, by
 * calling its public functions on the workload's own inputs.
 *
 * Two parts. The layer probes give the per-layer metrics: each probe
 * drives one layer directly (the classify_batch kernel, the ring, a skip
 * loop, LabelSearch, the engines, the sinks, the splitter, the serve
 * dispatcher) and reports the median of kRepeats passes. The traced pass
 * replays the workload's query pass (or request sequence) in-process with
 * a span around every call into a layer; it runs alternately with tracing
 * on and off, which gives each layer's self time and the tracing overhead.
 *
 * The serve layers, which no workload's inputs reach, are probed on a
 * pool of small request bodies, so every traced run reports every metric.
 */
#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <random>
#include <stdexcept>

#include "descend/automaton/compiled.h"
#include "descend/classify/block_batch.h"
#include "descend/engine/label_search.h"
#include "descend/engine/main_engine.h"
#include "descend/engine/scratch.h"
#include "descend/engine/structural_iterator.h"
#include "descend/multi/fused.h"
#include "descend/multi/multi_stream.h"
#include "descend/multi/product_query.h"
#include "descend/obs/accounting.h"
#include "descend/project/projector.h"
#include "descend/project/sink.h"
#include "descend/project/span.h"
#include "descend/serve/dispatch.h"
#include "descend/serve/query_cache.h"
#include "descend/stream/record_splitter.h"
#include "descend/stream/stream_executor.h"
#include "descend/util/errors.h"
#include "perfbench.h"

namespace perfbench {

namespace {

using descend::PaddedString;
using descend::PaddedView;
using descend::obs::Counter;
namespace serve = descend::serve;

constexpr int kRepeats = 3;
constexpr int kTracedRepeats = 4;

/** Label searched for by the LabelSearch probe, per dataset: the label of
 *  the workload query that head-skips to it where there is one. */
const std::map<std::string, std::string>& probe_labels()
{
    static const std::map<std::string, std::string> labels = {
        {"twitter_small", "count"},   {"walmart", "name"},
        {"bestbuy", "videoChapters"}, {"googlemap", "available_travel_modes"},
        {"wikimedia", "P150"},        {"openfood", "vitamins_tags"},
        {"ast", "decl"},              {"crossref", "DOI"},
        {"nspl", "name"},             {"twitter", "screen_name"},
        {"stream", "sku"},
    };
    return labels;
}

/** One input buffer: a document file, the NDJSON stream or a request body.
 *  units are the documents the engines run on (the records of NDJSON). */
struct Buffer {
    std::string name;
    std::string file;
    std::string label;
    std::unique_ptr<PaddedString> bytes;
    std::vector<PaddedView> units;
    std::size_t size() const { return bytes->size(); }
};

struct QueryRun {
    std::string id;
    std::string query;
    std::size_t buffer = 0;
};

struct QuerySet {
    std::string name;
    std::vector<std::string> queries;
    std::vector<std::size_t> buffers;
};

struct FilterProbe {
    std::string filter;
    std::string base;
    std::vector<std::size_t> buffers;
};

struct Inputs {
    std::vector<Buffer> buffers;
    std::vector<QueryRun> runs;
    std::vector<QuerySet> sets;
    FilterProbe filter;
};

void add_buffer(Inputs& in, const std::string& name, const std::string& file,
                const std::string& label, PaddedString bytes, bool ndjson)
{
    Buffer buffer;
    buffer.name = name;
    buffer.file = file;
    buffer.label = label;
    buffer.bytes = std::make_unique<PaddedString>(std::move(bytes));
    const PaddedView view(*buffer.bytes);
    if (ndjson) {
        for (const auto& record :
             descend::stream::split_records(view, descend::simd::best_kernels())) {
            buffer.units.push_back(view.subview(record.begin, record.size()));
        }
    } else {
        buffer.units.push_back(view);
    }
    in.buffers.push_back(std::move(buffer));
}

std::size_t buffer_index(const Inputs& in, const std::string& name)
{
    for (std::size_t i = 0; i < in.buffers.size(); ++i) {
        if (in.buffers[i].name == name) {
            return i;
        }
    }
    throw std::runtime_error("no buffer " + name);
}

Inputs load_inputs(const std::string& workload, const std::string& dir)
{
    Inputs in;
    if (workload == "doc-skip" || workload == "doc-dense") {
        const auto& queries = doc_queries(workload);
        for (const std::string& dataset : datasets_of(queries)) {
            const std::string file = doc_path(dir, dataset);
            add_buffer(in, dataset, file, probe_labels().at(dataset),
                       PaddedString::from_file(file), false);
            in.sets.push_back({dataset, {}, {in.buffers.size() - 1}});
        }
        for (const DocQuery& q : queries) {
            in.runs.push_back({q.id, q.query, buffer_index(in, q.dataset)});
            for (QuerySet& set : in.sets) {
                if (set.name == q.dataset) {
                    set.queries.push_back(q.query);
                }
            }
        }
        in.filter = workload == "doc-skip"
                        ? FilterProbe{"$.items[?(@.salePrice > 300)]", "$.items.*",
                                      {buffer_index(in, "walmart")}}
                        : FilterProbe{"$.products[?(@.salePrice > 1000)]",
                                      "$.products.*", {buffer_index(in, "bestbuy")}};
    } else if (workload == "stream-multi") {
        add_buffer(in, "stream", stream_path(dir), probe_labels().at("stream"),
                   PaddedString::from_file(stream_path(dir)), true);
        const std::vector<std::string> product = stream_product_set();
        for (std::size_t q : {0, 1, 8}) {
            in.runs.push_back({"S" + std::to_string(q), product[q], 0});
        }
        in.sets.push_back({"product", product, {0}});
        in.sets.push_back({"lanes", stream_lanes_set(), {0}});
        in.filter = {stream_lanes_set().back(), "$.products.*", {0}};
    } else {
        throw std::runtime_error("unknown workload: " + workload);
    }
    return in;
}

/** Median wall seconds of kRepeats calls of @p pass. */
double time_median(const std::function<void()>& pass)
{
    std::vector<double> seconds;
    for (int r = 0; r < kRepeats; ++r) {
        const Clock::time_point start = Clock::now();
        pass();
        seconds.push_back(seconds_since(start));
    }
    return median(seconds);
}

std::size_t total_bytes(const Inputs& in)
{
    std::size_t bytes = 0;
    for (const Buffer& b : in.buffers) {
        bytes += b.size();
    }
    return bytes;
}

std::size_t unit_bytes(const Buffer& buffer)
{
    std::size_t bytes = 0;
    for (PaddedView unit : buffer.units) {
        bytes += unit.size();
    }
    return bytes;
}

/** @p part / @p whole, or 0 when there is nothing to divide by. */
double ratio(double part, double whole)
{
    return whole > 0 ? part / whole : 0.0;
}

/** Keeps a value alive so the compiler cannot drop the work behind it. */
volatile std::uint64_t g_sink = 0;

/** Discards whatever is written to it (the NDJSON projection target). */
class NullBuffer final : public std::streambuf {
protected:
    int overflow(int c) override { return c; }
    std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

/** The zero-copy slice mode without storing every slice: each slice is
 *  handed over and only its length is kept. */
class SliceLengthSink final : public descend::project::ProjectionSink {
public:
    void on_value(const descend::project::ValueSpan&, std::string_view bytes) override
    {
        bytes_ += bytes.size();
    }
    std::size_t bytes() const noexcept { return bytes_; }

private:
    std::size_t bytes_ = 0;
};

/** Per-layer metric values by name. */
using Metrics = std::map<std::string, double>;

void probe_bytes(const Inputs& in, Metrics& m)
{
    const auto& kernels = descend::simd::best_kernels();
    const double bytes = static_cast<double>(total_bytes(in));

    m["roofline.mem_read.gbps"] = bytes * 1e-9 / time_median([&] {
        std::uint64_t sum = 0;
        for (const Buffer& b : in.buffers) {
            const std::uint8_t* data = b.bytes->data();
            for (std::size_t i = 0; i + 8 <= b.size(); i += 8) {
                std::uint64_t word;
                std::memcpy(&word, data + i, 8);
                sum += word;
            }
        }
        g_sink = sum;
    });

    m["simd.classify_batch.gbps"] = bytes * 1e-9 / time_median([&] {
        descend::simd::BlockMasks masks[descend::simd::kBatchBlocks];
        std::uint64_t acc = 0;
        for (const Buffer& b : in.buffers) {
            descend::simd::BatchCarry carry;
            for (std::size_t at = 0; at < b.size(); at += descend::simd::kBatchSize) {
                kernels.classify_batch(b.bytes->data() + at, carry, masks);
                acc += masks[0].commas ^ masks[7].colons;
            }
        }
        g_sink = acc;
    });

    std::uint64_t refills = 0;
    m["classify.ring.gbps"] = bytes * 1e-9 / time_median([&] {
        descend::obs::Counters counters;
        std::uint64_t acc = 0;
        for (const Buffer& b : in.buffers) {
            descend::classify::BatchedBlockStream ring(b.bytes->data(), kernels,
                                                       &counters);
            for (std::size_t at = 0; at < b.size(); at += descend::simd::kBlockSize) {
                acc += ring.masks(at).open_braces;
            }
        }
        g_sink = acc;
        refills = counters.get(Counter::kBatchRefills);
    });
    m["classify.refills"] = static_cast<double>(refills);

    m["stream.split.gbps"] = bytes * 1e-9 / time_median([&] {
        std::size_t records = 0;
        for (const Buffer& b : in.buffers) {
            records += descend::stream::split_records(*b.bytes, kernels).size();
        }
        g_sink = records;
    });

    m["engine.load.gbps"] = bytes * 1e-9 / time_median([&] {
        // from_file maps large files lazily, so the load includes touching
        // every page once, as the first engine pass would.
        std::uint64_t acc = 0;
        for (const Buffer& b : in.buffers) {
            const PaddedString loaded = PaddedString::from_file(b.file);
            for (std::size_t i = 0; i < loaded.size(); i += 4096) {
                acc += loaded.data()[i];
            }
        }
        g_sink = acc;
    });
}

void probe_iterator(const Inputs& in, Metrics& m)
{
    using descend::StructuralIterator;
    using Kind = StructuralIterator::Kind;
    const auto& kernels = descend::simd::best_kernels();
    double unit_total = 0;
    for (const Buffer& b : in.buffers) {
        unit_total += static_cast<double>(unit_bytes(b));
    }

    // Child skip: every child of each document's root fast-forwarded whole.
    m["engine.child_skip.gbps"] = unit_total * 1e-9 / time_median([&] {
        std::uint64_t acc = 0;
        for (const Buffer& b : in.buffers) {
            for (PaddedView unit : b.units) {
                StructuralIterator it(unit, kernels);
                if (it.next().kind != Kind::kOpening) {
                    continue;
                }
                for (auto e = it.next(); e.kind == Kind::kOpening; e = it.next()) {
                    it.skip_element(e.byte, 1);
                }
                acc += it.position();
            }
        }
        g_sink = acc;
    });

    // Sibling skip: enter each child of the root, then fast-forward to its
    // closer, as after a unitary state's label matched.
    m["engine.sibling_skip.gbps"] = unit_total * 1e-9 / time_median([&] {
        std::uint64_t acc = 0;
        for (const Buffer& b : in.buffers) {
            for (PaddedView unit : b.units) {
                StructuralIterator it(unit, kernels);
                if (it.next().kind != Kind::kOpening) {
                    continue;
                }
                for (auto e = it.next(); e.kind == Kind::kOpening; e = it.next()) {
                    it.skip_to_parent_close(e.byte == '{', 1);
                    it.next();  // the child's closer
                }
                acc += it.position();
            }
        }
        g_sink = acc;
    });

    // Walk: every structural event, commas and colons included.
    std::uint64_t events = 0;
    const double walk_seconds = time_median([&] {
        events = 0;
        for (const Buffer& b : in.buffers) {
            for (PaddedView unit : b.units) {
                StructuralIterator it(unit, kernels);
                it.set_commas(true);
                it.set_colons(true);
                while (it.next().kind != Kind::kNone) {
                    ++events;
                }
            }
        }
    });
    m["engine.walk.ns_per_event"] = ratio(walk_seconds * 1e9, static_cast<double>(events));

    std::uint64_t candidates = 0;
    std::uint64_t hits = 0;
    m["engine.label_search.gbps"] = unit_total * 1e-9 / time_median([&] {
        descend::obs::Counters counters;
        descend::obs::BlockAccountant accountant(&counters);
        std::uint64_t found = 0;
        for (const Buffer& b : in.buffers) {
            for (PaddedView unit : b.units) {
                descend::LabelSearch search(unit, kernels, b.label, nullptr, &accountant);
                while (search.next()) {
                    ++found;
                }
            }
        }
        g_sink = found;
        candidates = counters.get(Counter::kLabelSearchCandidates);
        hits = counters.get(Counter::kLabelSearchHits);
    });
    m["engine.label_search.hit_ratio"] =
        ratio(static_cast<double>(hits), static_cast<double>(candidates));
}

/** Engine runs of the workload's queries: speed, validation cost, the
 *  exactly-repeating counts, and each query's match count for run.py. */
void probe_engine(const Inputs& in, Metrics& m, JsonBuilder& counts)
{
    double bytes = 0;
    std::vector<descend::DescendEngine> validating;
    std::vector<descend::DescendEngine> trusting;
    descend::EngineOptions off;
    off.validate_structure = false;
    for (const QueryRun& run : in.runs) {
        bytes += static_cast<double>(unit_bytes(in.buffers[run.buffer]));
        validating.emplace_back(descend::automaton::CompiledQuery::compile(run.query));
        trusting.emplace_back(descend::automaton::CompiledQuery::compile(run.query), off);
    }

    descend::obs::Counters totals;
    std::vector<std::uint64_t> matches(in.runs.size(), 0);
    auto pass = [&](const std::vector<descend::DescendEngine>& engines, bool record) {
        for (std::size_t r = 0; r < in.runs.size(); ++r) {
            descend::CountSink sink;
            for (PaddedView unit : in.buffers[in.runs[r].buffer].units) {
                const descend::RunStats stats = engines[r].run_with_stats(unit, sink);
                if (!stats.status.ok()) {
                    throw std::runtime_error("engine run failed: " + in.runs[r].query);
                }
                if (record) {
                    totals.merge(stats.counters);
                }
            }
            matches[r] = sink.count();
        }
    };
    pass(validating, true);  // counts once, outside the timed passes

    std::vector<double> on_seconds, off_seconds;
    for (int r = 0; r < kRepeats; ++r) {
        Clock::time_point start = Clock::now();
        pass(validating, false);
        on_seconds.push_back(seconds_since(start));
        start = Clock::now();
        pass(trusting, false);
        off_seconds.push_back(seconds_since(start));
    }
    const double on = median(on_seconds);
    const double off_s = median(off_seconds);
    m["engine.run.gbps"] = bytes * 1e-9 / on;
    m["engine.validation.cost_pct"] = (on - off_s) / off_s * 100.0;
    m["engine.structural_events"] = static_cast<double>(totals.get(Counter::kStructuralEvents));
    m["engine.depth_stack_pushes"] = static_cast<double>(totals.get(Counter::kDepthStackPushes));

    const Counter modes[] = {Counter::kBlocksStructural,    Counter::kBlocksChildSkipped,
                             Counter::kBlocksSiblingSkipped, Counter::kBlocksWithinSkipped,
                             Counter::kBlocksHeadSkip,      Counter::kBlocksTail};
    std::uint64_t all_blocks = 0;
    counts.key("blocks");
    counts.begin_object();
    for (Counter mode : modes) {
        all_blocks += totals.get(mode);
        field(counts, descend::obs::counter_name(mode), totals.get(mode));
    }
    counts.end_object();
    m["engine.blocks_skipped_share"] =
        ratio(static_cast<double>(all_blocks - totals.get(Counter::kBlocksStructural)),
              static_cast<double>(all_blocks));
    field(counts, "label_search_candidates", totals.get(Counter::kLabelSearchCandidates));
    field(counts, "label_search_hits", totals.get(Counter::kLabelSearchHits));
    field(counts, "structural_events", totals.get(Counter::kStructuralEvents));
    field(counts, "depth_stack_pushes", totals.get(Counter::kDepthStackPushes));
    counts.key("matches");
    counts.begin_object();
    for (std::size_t r = 0; r < in.runs.size(); ++r) {
        field(counts, in.runs[r].id, matches[r]);
    }
    counts.end_object();

    // Compilation: every query of the workload, singles and sets.
    std::vector<std::string> texts;
    for (const QueryRun& run : in.runs) {
        texts.push_back(run.query);
    }
    for (const QuerySet& set : in.sets) {
        texts.insert(texts.end(), set.queries.begin(), set.queries.end());
    }
    m["automaton.compile.us"] = time_median([&] {
        for (const std::string& text : texts) {
            g_sink = descend::automaton::CompiledQuery::compile(text).initial_state();
        }
    }) * 1e6 / static_cast<double>(texts.size());
}

void probe_multi(const Inputs& in, Metrics& m, JsonBuilder& counts)
{
    using descend::multi::FusedBackend;
    double product_bytes = 0;
    double lanes_bytes = 0;
    double product_seconds = 0;
    double lanes_seconds = 0;
    double compile_seconds = 0;
    std::uint64_t product_states = 0;
    std::uint64_t suppressed = 0;
    std::uint64_t taken = 0;
    counts.key("sets");
    counts.begin_object();
    for (const QuerySet& set : in.sets) {
        double bytes = 0;
        for (std::size_t b : set.buffers) {
            bytes += static_cast<double>(unit_bytes(in.buffers[b]));
        }
        auto run_backend = [&](FusedBackend backend, descend::obs::Counters& totals,
                               std::vector<std::size_t>& per_query) {
            const auto engine = descend::multi::make_fused_engine(set.queries, {}, backend);
            return time_median([&] {
                descend::obs::Counters counters;
                descend::multi::CountingMultiSink sink(set.queries.size());
                for (std::size_t b : set.buffers) {
                    for (PaddedView unit : in.buffers[b].units) {
                        const descend::RunStats stats =
                            engine->run_with_stats(unit, sink);
                        if (!stats.status.ok()) {
                            throw std::runtime_error("fused run failed: " + set.name);
                        }
                        counters.merge(stats.counters);
                    }
                }
                totals = counters;
                per_query.assign(set.queries.size(), 0);
                for (std::size_t q = 0; q < set.queries.size(); ++q) {
                    per_query[q] = sink.count(q);
                }
            });
        };

        counts.key(set.name);
        counts.begin_object();
        const descend::multi::MultiQuery query_set =
            descend::multi::MultiQuery::compile(set.queries);
        bool product_ok = true;
        try {
            compile_seconds += time_median([&] {
                g_sink = descend::multi::QuerySetCompiler::compile(query_set).num_states();
            });
        } catch (const descend::LimitError&) {
            product_ok = false;  // filters: the auto backend falls back to lanes
        }
        std::vector<std::size_t> per_query;
        if (product_ok) {
            descend::obs::Counters totals;
            product_seconds += run_backend(FusedBackend::kProduct, totals, per_query);
            product_bytes += bytes;
            product_states += totals.get(Counter::kProductStates);
            field(counts, "product_states", totals.get(Counter::kProductStates));
        }
        descend::obs::Counters lanes;
        lanes_seconds += run_backend(FusedBackend::kLanes, lanes, per_query);
        lanes_bytes += bytes;
        const std::uint64_t set_suppressed =
            lanes.get(Counter::kFusedChildSkipSuppressed) +
            lanes.get(Counter::kFusedSiblingSkipSuppressed) +
            lanes.get(Counter::kFusedWithinSkipSuppressed);
        suppressed += set_suppressed;
        taken += lanes.get(Counter::kChildSkips) + lanes.get(Counter::kSiblingSkips) +
                 lanes.get(Counter::kWithinSkips);
        field(counts, "lanes_skips_suppressed", set_suppressed);
        counts.key("matches");
        counts.begin_array();
        for (std::size_t c : per_query) {
            counts.number(static_cast<std::uint64_t>(c));
        }
        counts.end_array();
        counts.end_object();
    }
    counts.end_object();
    m["multi.product.gbps"] = product_bytes * 1e-9 / product_seconds;
    m["multi.lanes.gbps"] = lanes_bytes * 1e-9 / lanes_seconds;
    m["multi.product_compile.ms"] = compile_seconds * 1e3;
    m["multi.product_states"] = static_cast<double>(product_states);
    m["multi.skip_suppressed_ratio"] =
        ratio(static_cast<double>(suppressed), static_cast<double>(suppressed + taken));
}

void probe_project(const Inputs& in, Metrics& m)
{
    const auto& kernels = descend::simd::best_kernels();
    double bytes = 0;
    std::vector<descend::DescendEngine> engines;
    for (const QueryRun& run : in.runs) {
        bytes += static_cast<double>(unit_bytes(in.buffers[run.buffer]));
        engines.emplace_back(descend::automaton::CompiledQuery::compile(run.query));
    }
    // Each pass runs every query over its units with one kind of sink.
    auto pass = [&](const std::function<void(const descend::DescendEngine&, PaddedView)>& one) {
        return time_median([&] {
            for (std::size_t r = 0; r < in.runs.size(); ++r) {
                for (PaddedView unit : in.buffers[in.runs[r].buffer].units) {
                    one(engines[r], unit);
                }
            }
        });
    };
    const double count_seconds = pass([](const descend::DescendEngine& e, PaddedView unit) {
        descend::CountSink sink;
        e.run(unit, sink);
        g_sink = sink.count();
    });
    const double slice_seconds = pass([&](const descend::DescendEngine& e, PaddedView unit) {
        descend::project::SpanExtender extender(unit, kernels);
        SliceLengthSink slices;
        descend::project::ProjectingMatchSink sink(extender, slices);
        e.run(unit, sink);
        g_sink = slices.bytes();
    });
    NullBuffer null_buffer;
    std::ostream null_stream(&null_buffer);
    const double ndjson_seconds = pass([&](const descend::DescendEngine& e, PaddedView unit) {
        descend::project::SpanExtender extender(unit, kernels);
        descend::project::NdjsonSink ndjson(null_stream);
        descend::project::ProjectingMatchSink sink(extender, ndjson);
        e.run(unit, sink);
        g_sink = ndjson.lines();
    });
    m["project.slices.overhead_pct"] = (slice_seconds - count_seconds) / count_seconds * 100.0;
    m["project.ndjson.gbps"] = bytes * 1e-9 / ndjson_seconds;

    // Span extension alone, over every match offset of the workload.
    std::vector<std::pair<PaddedView, std::vector<std::size_t>>> matches;
    std::size_t values = 0;
    for (std::size_t r = 0; r < in.runs.size(); ++r) {
        for (PaddedView unit : in.buffers[in.runs[r].buffer].units) {
            descend::OffsetSink sink;
            engines[r].run(unit, sink);
            values += sink.offsets().size();
            matches.emplace_back(unit, sink.take_offsets());
        }
    }
    const double extend_seconds = time_median([&] {
        std::uint64_t acc = 0;
        for (const auto& [unit, offsets] : matches) {
            descend::project::SpanExtender extender(unit, kernels);
            for (std::size_t offset : offsets) {
                acc += extender.extend(offset).end;
            }
        }
        g_sink = acc;
    });
    m["project.span_extend.ns_per_value"] =
        ratio(extend_seconds * 1e9, static_cast<double>(values));

    std::size_t accepted = 0;
    std::size_t candidates = 0;
    const auto filter = descend::DescendEngine::for_query(in.filter.filter);
    const auto base = descend::DescendEngine::for_query(in.filter.base);
    for (std::size_t b : in.filter.buffers) {
        for (PaddedView unit : in.buffers[b].units) {
            descend::CountSink accepted_sink;
            descend::CountSink candidate_sink;
            filter.run(unit, accepted_sink);
            base.run(unit, candidate_sink);
            accepted += accepted_sink.count();
            candidates += candidate_sink.count();
        }
    }
    m["project.filter.accept_ratio"] =
        ratio(static_cast<double>(accepted), static_cast<double>(candidates));

    // The record-stream executor on the first query, one worker.
    descend::stream::StreamOptions options;
    options.threads = 1;
    const descend::stream::StreamExecutor executor =
        descend::stream::StreamExecutor::for_query(in.runs.front().query, options);
    double stream_bytes = 0;
    std::vector<std::vector<descend::stream::RecordSpan>> records;
    for (const Buffer& b : in.buffers) {
        stream_bytes += static_cast<double>(b.size());
        records.push_back(descend::stream::split_records(*b.bytes, kernels));
    }
    m["stream.executor.gbps"] = stream_bytes * 1e-9 / time_median([&] {
        for (std::size_t b = 0; b < in.buffers.size(); ++b) {
            descend::stream::CountingStreamSink sink;
            g_sink = executor.run_records(*in.buffers[b].bytes, records[b], sink).matches;
        }
    });
}

/** What a correct descend-serve answers to one request. */
struct Expected {
    std::uint64_t count = 0;
    std::vector<std::uint64_t> offsets;
    std::vector<std::string> values;
};

/** The answer computed by direct in-process runs: one DescendEngine per
 *  query (per record for NDJSON bodies) and the scalar span oracle. */
Expected expect(const ServePool& pool, serve::RequestMode mode, std::uint32_t flags,
                const std::string& query, std::size_t body)
{
    const descend::PaddedString document(pool.bodies[body]);
    Expected expected;
    auto run_one = [&](const std::string& q, descend::PaddedView view, std::size_t base) {
        descend::OffsetSink sink;
        if (!descend::DescendEngine::for_query(q).run(view, sink).ok()) {
            throw std::runtime_error("expected-answer run failed: " + q);
        }
        expected.count += sink.offsets().size();
        for (std::size_t offset : sink.offsets()) {
            if ((flags & serve::kWantOffsets) != 0) {
                expected.offsets.push_back(base + offset);
            }
            if ((flags & serve::kWantValues) != 0) {
                const auto span = descend::project::extend_value_span(view, offset);
                expected.values.emplace_back(view.view().substr(span.begin, span.size()));
            }
        }
    };
    if (mode == serve::RequestMode::kMulti) {
        for (const std::string& q : serve::split_query_set(query)) {
            run_one(q, document, 0);
        }
    } else if (mode == serve::RequestMode::kNdjson) {
        const descend::PaddedView view(document);
        for (const auto& record :
             descend::stream::split_records(view, descend::simd::best_kernels())) {
            run_one(query, view.subview(record.begin, record.size()), record.begin);
        }
    } else {
        run_one(query, document, 0);
    }
    return expected;
}

/** True when @p response is ok and carries exactly @p expected. */
bool matches(const serve::Response& response, const Expected& expected,
             std::uint32_t flags)
{
    if (!response.ok() || response.match_count != expected.count) {
        return false;
    }
    if ((flags & serve::kWantOffsets) != 0 && response.offsets != expected.offsets) {
        return false;
    }
    return (flags & serve::kWantValues) == 0 || response.values == expected.values;
}

/** A seed-drawn request sequence over the pool: the templates, each
 *  equally likely, plus unique query texts (cache misses). */
std::vector<serve::Request> request_sequence(const ServePool& pool, std::uint64_t seed,
                                             std::size_t n)
{
    std::mt19937_64 rng(seed);
    std::vector<serve::Request> requests;
    for (std::size_t i = 0; i < n; ++i) {
        const ServeTemplate& t = pool.templates[rng() % pool.templates.size()];
        serve::Request request;
        request.mode = t.mode;
        request.flags = t.flags;
        request.query = t.query;
        request.body = pool.bodies[t.body];
        if (rng() % 20 == 0 && t.mode == serve::RequestMode::kSingle) {
            request.query = "$..u" + std::to_string(seed) + "x" + std::to_string(i);
        }
        requests.push_back(std::move(request));
    }
    return requests;
}

void probe_serve(const ServePool& pool, std::uint64_t seed, Metrics& m, JsonBuilder& counts)
{
    serve::QueryCache cache(1 << 16);
    const serve::Dispatcher dispatcher(serve::ServePolicy{}, cache);
    descend::RunScratch scratch;
    for (const ServeTemplate& t : pool.templates) {  // warm the cache
        serve::Request request;
        request.mode = t.mode;
        request.flags = t.flags;
        request.query = t.query;
        request.body = pool.bodies[t.body];
        const serve::Response response = dispatcher.handle(request, scratch);
        if (!matches(response, expect(pool, t.mode, t.flags, t.query, t.body), t.flags)) {
            throw std::runtime_error("in-process dispatch disagrees: " + t.query);
        }
    }
    field(counts, "serve_answers_checked", static_cast<std::uint64_t>(pool.templates.size()));
    const std::vector<serve::Request> requests = request_sequence(pool, seed, 2000);

    std::vector<double> dispatch_us;
    std::uint64_t hits = 0;
    for (const serve::Request& request : requests) {
        const Clock::time_point start = Clock::now();
        const serve::Response response = dispatcher.handle(request, scratch);
        dispatch_us.push_back(seconds_since(start) * 1e6);
        hits += response.cache_hit() ? 1 : 0;
    }
    m["serve.dispatch.us_p50"] = median(dispatch_us);
    m["serve.cache.hit_ratio"] = static_cast<double>(hits) / static_cast<double>(requests.size());
    field(counts, "cache_hits", hits);
    field(counts, "cache_misses", static_cast<std::uint64_t>(requests.size() - hits));

    // Wire protocol: encode and decode both frames, no socket.
    std::vector<serve::Response> responses;
    for (const serve::Request& request : requests) {
        responses.push_back(dispatcher.handle(request, scratch));
    }
    m["serve.protocol.us"] = time_median([&] {
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const auto frame = serve::encode_request(requests[i]);
            serve::FrameReader reader;
            if (reader.feed(frame.data(), frame.size()) != serve::FrameReader::State::kReady) {
                throw std::runtime_error("request frame did not decode");
            }
            acc += reader.take_request().body.size();
            const auto reply = serve::encode_response(responses[i]);
            serve::Response decoded;
            std::size_t consumed = 0;
            if (!serve::decode_response(reply.data(), reply.size(), decoded, consumed)) {
                throw std::runtime_error("response frame did not decode");
            }
            acc += decoded.match_count;
        }
        g_sink = acc;
    }) * 1e6 / static_cast<double>(requests.size());
}

/** The workload's pass in-process, a span around each layer call. */
class TracedPass {
public:
    TracedPass(const std::string& workload, const std::string& dir, std::uint64_t seed)
        : workload_(workload), dir_(dir), seed_(seed)
    {
    }

    void run(Tracer& tracer)
    {
        if (workload_ == "doc-skip" || workload_ == "doc-dense") {
            auto queries = doc_queries(workload_);
            std::mt19937_64 rng(seed_);
            std::shuffle(queries.begin(), queries.end(), rng);
            for (const DocQuery& q : queries) {
                doc_query(tracer, q);
            }
        } else {
            stream_set(tracer, stream_product_set());
            stream_set(tracer, stream_lanes_set());
        }
    }

private:
    PaddedString load(Tracer& tracer, const std::string& file)
    {
        Tracer::Scope span(tracer, "engine.load");
        PaddedString bytes = PaddedString::from_file(file);
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < bytes.size(); i += 4096) {
            acc += bytes.data()[i];
        }
        g_sink = acc;
        return bytes;
    }

    void doc_query(Tracer& tracer, const DocQuery& q)
    {
        tracer.begin_trace();
        Tracer::Scope pass(tracer, "pass");
        const PaddedString document = load(tracer, doc_path(dir_, q.dataset));
        std::optional<descend::DescendEngine> engine;
        {
            Tracer::Scope span(tracer, "automaton.compile");
            engine.emplace(descend::automaton::CompiledQuery::compile(q.query));
        }
        if (workload_ == "doc-skip") {
            Tracer::Scope span(tracer, "engine.run");
            g_sink = engine->count_checked(document).count;
            return;
        }
        descend::OffsetSink offsets;
        {
            Tracer::Scope span(tracer, "engine.run");
            engine->run(document, offsets);
        }
        Tracer::Scope span(tracer, "project.ndjson");
        NullBuffer null_buffer;
        std::ostream null_stream(&null_buffer);
        descend::project::SpanExtender extender(document, descend::simd::best_kernels());
        descend::project::NdjsonSink ndjson(null_stream);
        descend::project::project_all(extender, offsets.offsets(), ndjson);
        g_sink = ndjson.lines();
    }

    void stream_set(Tracer& tracer, const std::vector<std::string>& queries)
    {
        tracer.begin_trace();
        Tracer::Scope pass(tracer, "pass");
        const PaddedString input = load(tracer, stream_path(dir_));
        std::vector<descend::stream::RecordSpan> records;
        {
            Tracer::Scope span(tracer, "stream.split");
            records = descend::stream::split_records(input, descend::simd::best_kernels());
        }
        descend::stream::StreamOptions options;
        options.threads = 1;
        std::optional<descend::multi::MultiStreamExecutor> executor;
        {
            Tracer::Scope span(tracer, "multi.compile");
            executor.emplace(descend::multi::MultiQuery::compile(queries), options);
        }
        Tracer::Scope span(tracer, "stream.executor");
        descend::multi::CountingMultiStreamSink sink(queries.size());
        g_sink = executor->run_records(input, records, sink).matches;
    }

    std::string workload_;
    std::string dir_;
    std::uint64_t seed_;
};

}  // namespace

int cmd_layers(const Args& args)
{
    const std::string workload = args.get("workload");
    const std::string dir = args.get("dir");
    const std::uint64_t seed = args.get_u64("seed", 1);
    if (workload != "doc-skip" && workload != "doc-dense" && workload != "stream-multi") {
        throw std::runtime_error("unknown workload: " + workload);
    }

    // The traced pass first, alternating tracing off and on.
    TracedPass traced(workload, dir, seed);
    Tracer off(false);
    Tracer on(true);
    std::vector<double> off_seconds, on_seconds;
    traced.run(off);  // warm the page cache and allocator
    auto timed = [&](Tracer& tracer, std::vector<double>& seconds) {
        tracer.clear();
        const Clock::time_point start = Clock::now();
        traced.run(tracer);
        seconds.push_back(seconds_since(start));
    };
    for (int r = 0; r < kTracedRepeats; ++r) {
        // Alternate which side runs first, so drift cancels out.
        if (r % 2 == 0) {
            timed(off, off_seconds);
            timed(on, on_seconds);
        } else {
            timed(on, on_seconds);
            timed(off, off_seconds);
        }
    }
    const double untraced_s = median(off_seconds);
    const double traced_s = median(on_seconds);

    Metrics m;
    m["trace.overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100.0;
    JsonBuilder counts(4096);
    counts.begin_object();
    const Inputs in = load_inputs(workload, dir);
    probe_bytes(in, m);
    probe_iterator(in, m);
    probe_engine(in, m, counts);
    probe_multi(in, m, counts);
    probe_project(in, m);
    probe_serve(build_serve_pool(), seed, m, counts);
    counts.end_object();

    JsonBuilder out(8192);
    out.begin_object();
    out.key("metrics");
    out.begin_object();
    for (const auto& [name, value] : m) {
        field(out, name, value);
    }
    out.end_object();
    out.key("trace");
    out.begin_object();
    field(out, "untraced_ms", untraced_s * 1e3);
    field(out, "traced_ms", traced_s * 1e3);
    field(out, "overhead_ms", (traced_s - untraced_s) * 1e3);
    field(out, "spans", static_cast<std::uint64_t>(on.spans().size()));
    field(out, "traces",
          static_cast<std::uint64_t>(on.spans().empty() ? 0 : on.spans().back().trace_id));
    out.key("self_ms");
    out.begin_object();
    for (const auto& [name, seconds] : on.self_seconds()) {
        field(out, name, seconds * 1e3);
    }
    out.end_object();
    out.end_object();
    out.key("counts");
    out.raw_value(counts.take());
    out.end_object();
    std::printf("%s\n", out.take().c_str());

    if (args.has("spans")) {
        // The raw spans of the last traced pass, one JSON object per line.
        std::string lines;
        for (const Tracer::Span& span : on.spans()) {
            JsonBuilder line(128);
            line.begin_object();
            field(line, "name", span.name);
            field(line, "trace", static_cast<std::uint64_t>(span.trace_id));
            line.key("parent");
            line.raw_value(std::to_string(span.parent));
            field(line, "start_ns", span.start_ns);
            field(line, "end_ns", span.end_ns);
            line.end_object();
            lines += line.take() + "\n";
        }
        write_file(args.get("spans"), lines);
    }
    return 0;
}

}  // namespace perfbench
