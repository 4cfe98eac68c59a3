/**
 * @file
 * descend-cli: run JSONPath queries over JSON files from the command line.
 *
 *   descend-cli [options] '<query>' [file...]
 *   descend-cli [options] --query Q1 --query Q2 ... [file...]
 *
 * Reads from stdin when no file is given. Options:
 *
 *   --count            print only the number of matches
 *   --offsets          print byte offsets instead of values
 *   --project MODE     materialize matched values through the projection
 *                      subsystem (src/descend/project) instead of the
 *                      scalar extractor:
 *                        slices  raw input slices, byte-verbatim (the
 *                                default printing, but spans are extended
 *                                with the SIMD mask walk)
 *                        ndjson  compact re-serialization, one value per
 *                                output line, no prefixes — pure NDJSON
 *                                on stdout (string escapes untouched)
 *                        count   extend every span but print only totals
 *                                ("values=N bytes=B"; the overhead
 *                                baseline used by bench_projection)
 *                      conflicts with --count and --offsets
 *   --limit N          print at most N results (default: all)
 *   --engine NAME      descend (default) | surfer | ski | dom
 *   --query Q          add a query to the set (repeatable). With more than
 *                      one query the descend engine evaluates the whole set
 *                      in one fused pass (one block classification, one
 *                      product automaton); matches print as "query Q: value"
 *   --queries FILE     add every query listed in FILE (one per line; blank
 *                      lines and lines starting with '#' are skipped)
 *   --fused MODE       deprecated and ignored (auto | lanes | product):
 *                      every set compiles into one product automaton (O(1)
 *                      automaton work per event; scales to 1k+ queries),
 *                      or into sequential groups when it exceeds the
 *                      state cap; an unknown MODE is still a usage error
 *   --simd LEVEL       kernel tier: scalar | avx2 | avx512 (default: best
 *                      supported; unavailable tiers fall back). Also
 *                      settable via the DESCEND_SIMD_LEVEL env var, which
 *                      acts as a cap on whatever is requested here.
 *   --scalar           shorthand for --simd scalar
 *   --no-head-skip     disable memmem head-skipping
 *   --within-skip      enable the within-element label skip extension
 *   --stats            print the JSON observability report to stderr
 *                      (counters, block attribution, phase timings — see
 *                      DESIGN.md §4.6; counters are live when the library
 *                      was built with DESCEND_OBS=ON, the default)
 *   --validate         strictly validate the input first (DOM parse)
 *   --ndjson           treat input as newline-delimited JSON: SIMD record
 *                      splitting + parallel sharded execution (descend
 *                      engine only); matches print as "record R: value"
 *   --threads N        worker threads for --ndjson (default: all cores)
 *   --fail-fast        with --ndjson, stop at the first malformed record
 *                      instead of skipping it and continuing
 *   --retry-scalar     with --ndjson, re-run each failed record on the
 *                      scalar kernel tier before reporting it (tier
 *                      divergences indicate a kernel bug and are counted
 *                      in the --stats report)
 *   --deadline-ms N    per-document/per-record run deadline; an expired
 *                      run stops at batch granularity with a "deadline
 *                      exceeded" status
 *   --stream-budget-ms N
 *                      with --ndjson, whole-stream budget: when it
 *                      expires the stream stops like a fail-fast floor at
 *                      the first unfinished record (deterministic for
 *                      every --threads value)
 *   --help             this text
 *
 * Exit codes:
 *   0  success
 *   1  internal or unclassified error
 *   2  usage error (bad flags or malformed query)
 *   3  malformed input document
 *   4  resource limit or governance stop (deadline / cancellation)
 *   5  file I/O error
 */
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "descend/baselines/dom_engine.h"
#include "descend/baselines/ski_engine.h"
#include "descend/baselines/surfer_engine.h"
#include "descend/descend.h"
#include "descend/json/dom.h"
#include "descend/multi/fused.h"
#include "descend/multi/multi_stream.h"

namespace {

using namespace descend;

struct CliOptions {
    /** The query set: one entry = the classic single-query paths; more =
     *  fused multi-query execution (descend engine only). */
    std::vector<std::string> queries;
    std::vector<std::string> files;
    std::string engine = "descend";
    bool count_only = false;
    bool offsets_only = false;
    bool stats = false;
    bool validate = false;
    bool ndjson = false;
    bool fail_fast = false;
    bool retry_scalar = false;
    std::uint64_t deadline_ms = 0;       // 0 = none
    std::uint64_t stream_budget_ms = 0;  // 0 = none
    std::size_t threads = 0;  // 0 = hardware concurrency
    std::size_t limit = 0;    // 0 = unlimited
    project::ProjectionMode project = project::ProjectionMode::kNone;
    EngineOptions engine_options;
};

void usage()
{
    std::fputs(
        "usage: descend-cli [options] '<query>' [file...]\n"
        "       descend-cli [options] --query Q1 --query Q2 ... [file...]\n"
        "  --count | --offsets | --limit N | --project slices|ndjson|count\n"
        "  --engine descend|surfer|ski|dom   --simd scalar|avx2|avx512 | --scalar\n"
        "  --query Q (repeatable) | --queries FILE   fused multi-query set\n"
        "  --fused auto|lanes|product   deprecated, ignored\n"
        "  --no-head-skip | --within-skip | --stats | --validate\n"
        "  --ndjson [--threads N] [--fail-fast | --retry-scalar]\n"
        "  --deadline-ms N | --stream-budget-ms N   run governance\n"
        "exit codes: 0 ok, 1 error, 2 usage, 3 malformed input,\n"
        "            4 limit/deadline, 5 I/O\n",
        stderr);
}

bool parse_args(int argc, char** argv, CliOptions& options)
{
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--count") {
            options.count_only = true;
        } else if (arg == "--offsets") {
            options.offsets_only = true;
        } else if (arg == "--stats") {
            options.stats = true;
        } else if (arg == "--validate") {
            options.validate = true;
        } else if (arg == "--ndjson") {
            options.ndjson = true;
        } else if (arg == "--fail-fast") {
            options.fail_fast = true;
        } else if (arg == "--retry-scalar") {
            options.retry_scalar = true;
        } else if (arg == "--deadline-ms") {
            if (++i >= argc) {
                return false;
            }
            options.deadline_ms = std::strtoull(argv[i], nullptr, 10);
        } else if (arg == "--stream-budget-ms") {
            if (++i >= argc) {
                return false;
            }
            options.stream_budget_ms = std::strtoull(argv[i], nullptr, 10);
        } else if (arg == "--threads") {
            if (++i >= argc) {
                return false;
            }
            options.threads = static_cast<std::size_t>(std::strtoull(argv[i], nullptr, 10));
        } else if (arg == "--scalar") {
            options.engine_options.simd = simd::Level::scalar;
        } else if (arg == "--simd" || arg.rfind("--simd=", 0) == 0) {
            const char* value = nullptr;
            if (arg == "--simd") {
                if (++i >= argc) {
                    return false;
                }
                value = argv[i];
            } else {
                value = arg.c_str() + std::strlen("--simd=");
            }
            if (!simd::parse_level(value, options.engine_options.simd)) {
                std::fprintf(stderr, "descend-cli: unknown SIMD level '%s'\n",
                             value);
                return false;
            }
        } else if (arg == "--fused" || arg.rfind("--fused=", 0) == 0) {
            const char* value = nullptr;
            if (arg == "--fused") {
                if (++i >= argc) {
                    return false;
                }
                value = argv[i];
            } else {
                value = arg.c_str() + std::strlen("--fused=");
            }
            if (!multi::parse_fused_backend(value)) {
                std::fprintf(stderr,
                             "descend-cli: unknown fused backend '%s'\n", value);
                return false;
            }
            std::fputs("descend-cli: --fused is deprecated and ignored; "
                       "every query set runs on the product engine\n",
                       stderr);
        } else if (arg == "--project" || arg.rfind("--project=", 0) == 0) {
            const char* value = nullptr;
            if (arg == "--project") {
                if (++i >= argc) {
                    return false;
                }
                value = argv[i];
            } else {
                value = arg.c_str() + std::strlen("--project=");
            }
            if (!project::parse_projection_mode(value, options.project)) {
                std::fprintf(stderr,
                             "descend-cli: unknown projection mode '%s'\n",
                             value);
                return false;
            }
        } else if (arg == "--no-head-skip") {
            options.engine_options.head_skipping = false;
        } else if (arg == "--within-skip") {
            options.engine_options.label_within_skipping = true;
        } else if (arg == "--limit") {
            if (++i >= argc) {
                return false;
            }
            options.limit = static_cast<std::size_t>(std::strtoull(argv[i], nullptr, 10));
        } else if (arg == "--query") {
            if (++i >= argc) {
                return false;
            }
            options.queries.emplace_back(argv[i]);
        } else if (arg == "--queries") {
            if (++i >= argc) {
                return false;
            }
            std::ifstream file(argv[i]);
            if (!file) {
                std::fprintf(stderr, "descend-cli: cannot open queries file '%s'\n",
                             argv[i]);
                return false;
            }
            std::string line;
            while (std::getline(file, line)) {
                if (!line.empty() && line.back() == '\r') {
                    line.pop_back();
                }
                if (line.empty() || line[0] == '#') {
                    continue;
                }
                options.queries.push_back(line);
            }
        } else if (arg == "--engine") {
            if (++i >= argc) {
                return false;
            }
            options.engine = argv[i];
        } else if (arg == "--help" || arg == "-h") {
            return false;
        } else {
            positional.push_back(std::move(arg));
        }
    }
    if (options.queries.empty()) {
        // Classic form: the first positional is the query.
        if (positional.empty()) {
            return false;
        }
        options.queries.push_back(positional.front());
        options.files.assign(positional.begin() + 1, positional.end());
    } else {
        // Explicit --query/--queries: every positional is a file.
        options.files = std::move(positional);
    }
    return true;
}

/** Exit-code taxonomy (documented in usage()): malformed input is 3,
 *  resource limits and governance stops are 4. */
int exit_code_for(const EngineStatus& status)
{
    if (status.ok()) {
        return 0;
    }
    if (status.is_limit() || status.is_governance()) {
        return 4;
    }
    return 3;
}

/**
 * Buffered stdout: every byte a run prints is appended here and written
 * with one fwrite per 64 KiB, then by flush() at the end of the run, so
 * lines stay in the order they were appended.
 */
class OutputWriter {
public:
    static constexpr std::size_t kFlushBytes = std::size_t{64} << 10;

    OutputWriter() { buffer_.reserve(kFlushBytes); }
    OutputWriter(const OutputWriter&) = delete;
    OutputWriter& operator=(const OutputWriter&) = delete;

    /** The buffer, for appending a line in place. */
    std::string& buffer() noexcept { return buffer_; }

    void append(std::string_view bytes) { buffer_.append(bytes); }

    void append(std::size_t number)
    {
        char digits[24];
        const std::to_chars_result result =
            std::to_chars(digits, digits + sizeof digits, number);
        buffer_.append(digits, result.ptr);
    }

    void end_line()
    {
        buffer_.push_back('\n');
        if (buffer_.size() >= kFlushBytes) {
            flush();
        }
    }

    void flush()
    {
        std::fwrite(buffer_.data(), 1, buffer_.size(), stdout);
        buffer_.clear();
    }

private:
    std::string buffer_;
};

/**
 * Prints the matches of one view (a document or an NDJSON record) as they
 * arrive, one line each, through the OutputWriter: byte offsets
 * (--offsets), raw values (the default), or a --project mode. Every line
 * but an ndjson one starts with the current label ("file: ", "query Q: ",
 * "record R: "...). Under --count it only counts. The projection modes
 * extend each offset with one SpanExtender per view, whose tallies feed
 * counters().
 */
class MatchPrinter final : public MatchSink {
public:
    MatchPrinter(const CliOptions& options, OutputWriter& out)
        : options_(options),
          out_(out),
          kernels_(simd::kernels_for(options.engine_options.simd))
    {
    }

    /** Extends and extracts later matches over @p view. */
    void bind(PaddedView view)
    {
        view_ = view;
        if (options_.project != project::ProjectionMode::kNone) {
            extender_.emplace(view, kernels_, &counters_);
        }
    }

    void set_label(std::string_view label) { label_.assign(label); }

    void on_match(std::size_t offset) override
    {
        ++matches_;
        if (options_.count_only) {
            return;
        }
        project::ValueSpan span;
        if (extender_) {
            span = extender_->extend(offset);
            bytes_ += span.size();
            if (options_.project == project::ProjectionMode::kCount) {
                return;
            }
        }
        if (options_.limit != 0 && shown_ >= options_.limit) {
            ++suppressed_;
            return;
        }
        ++shown_;
        if (options_.project == project::ProjectionMode::kNdjson) {
            project::append_compact_value(extender_->slice(span), out_.buffer());
        } else {
            out_.append(label_);
            if (options_.offsets_only) {
                out_.append(offset);
            } else if (extender_) {
                out_.append(extender_->slice(span));
            } else {
                out_.append(extract_value(view_, offset));
            }
        }
        out_.end_line();
    }

    /** Trailing lines, with the current label: the --limit elision, the
     *  --count total and the count-mode totals. */
    void finish()
    {
        if (suppressed_ != 0) {
            trailing_line("... (", suppressed_, " more)");
        }
        if (options_.count_only) {
            trailing_line("", matches_, "");
        }
        if (options_.project == project::ProjectionMode::kCount) {
            out_.append(label_);
            out_.append("values=");
            out_.append(matches_);
            out_.append(" bytes=");
            out_.append(bytes_);
            out_.end_line();
        }
    }

    std::size_t matches() const noexcept { return matches_; }
    const obs::Counters& counters() const noexcept { return counters_; }

private:
    void trailing_line(std::string_view before, std::size_t number,
                       std::string_view after)
    {
        out_.append(label_);
        out_.append(before);
        out_.append(number);
        out_.append(after);
        out_.end_line();
    }

    const CliOptions& options_;
    OutputWriter& out_;
    const simd::Kernels& kernels_;
    PaddedView view_;
    std::optional<project::SpanExtender> extender_;
    obs::Counters counters_;
    std::string label_;
    std::size_t matches_ = 0;
    std::size_t bytes_ = 0;
    std::size_t shown_ = 0;
    std::size_t suppressed_ = 0;
};

std::unique_ptr<JsonPathEngine> make_engine(const CliOptions& options)
{
    const std::string& query = options.queries.front();
    if (options.engine == "descend") {
        return std::make_unique<DescendEngine>(
            automaton::CompiledQuery::compile(query), options.engine_options);
    }
    if (options.engine == "surfer") {
        return std::make_unique<SurferEngine>(
            automaton::CompiledQuery::compile(query),
            options.engine_options.limits, options.engine_options.budget);
    }
    if (options.engine == "ski") {
        return std::make_unique<SkiEngine>(query::Query::parse(query),
                                           options.engine_options.simd,
                                           options.engine_options.limits,
                                           options.engine_options.budget);
    }
    if (options.engine == "dom") {
        return std::make_unique<DomEngine>(query::Query::parse(query),
                                           options.engine_options.limits,
                                           options.engine_options.budget);
    }
    throw Error("unknown engine: " + options.engine);
}

PaddedString read_stdin()
{
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    return PaddedString(buffer.str());
}

/** The line label of a single-document run: "file: " when several files
 *  are queried, else empty. */
std::string file_label(const CliOptions& options, const std::string& source_name)
{
    return options.files.size() > 1 ? source_name + ": " : std::string();
}

void validate_document(const CliOptions& options, const PaddedString& document)
{
    if (options.validate) {
        json::ParseOptions parse_options;
        parse_options.max_depth = 1 << 16;
        json::parse(document.view(), parse_options);  // throws on bad input
    }
}

int report_failure(const std::string& label, const EngineStatus& status)
{
    std::fprintf(stderr, "descend-cli: %s%s\n", label.c_str(),
                 to_string(status).c_str());
    return exit_code_for(status);
}

void print_run_report(std::string engine, const PaddedString& document,
                      std::size_t matches, RunStats stats,
                      std::uint64_t compile_ns)
{
    obs::RunReport report;
    report.engine = std::move(engine);
    report.document_bytes = document.size();
    report.matches = matches;
    report.stats = std::move(stats);
    report.stats.timings.add(obs::Phase::kCompile, compile_ns);
    std::fprintf(stderr, "%s\n", obs::to_json(report).c_str());
}

/**
 * One document, one query: the engine reports each match straight into
 * the printer, which extends and writes it, so no offset list is held.
 * A failed run leaves the lines of the matches reported before the
 * failure on stdout, and no trailing lines.
 */
int run_on(const CliOptions& options, const JsonPathEngine& engine,
           const std::string& source_name, const PaddedString& document,
           std::uint64_t compile_ns, OutputWriter& out)
{
    validate_document(options, document);
    const std::string label = file_label(options, source_name);

    if (options.count_only && !options.stats) {
        CountSink count_sink;
        EngineStatus count_status = engine.run(document, count_sink);
        if (!count_status.ok()) {
            return report_failure(label, count_status);
        }
        out.append(label);
        out.append(count_sink.count());
        out.end_line();
        return 0;
    }
    MatchPrinter printer(options, out);
    printer.bind(document);
    printer.set_label(label);
    RunStats stats;
    if (const auto* descend_engine = dynamic_cast<const DescendEngine*>(&engine)) {
        stats = descend_engine->run_with_stats(document, printer);
    } else {
        stats.status = engine.run(document, printer);
    }
    if (!stats.status.ok()) {
        return report_failure(label, stats.status);
    }
    printer.finish();
    if (options.stats) {
        stats.counters.merge(printer.counters());
        print_run_report(engine.name(), document, printer.matches(),
                         std::move(stats), compile_ns);
    }
    return 0;
}

/**
 * Fused multi-query run over a single document: one classification pass,
 * one product automaton (see src/descend/multi). Matches print per query
 * in set order, so they are collected first; --count prints one
 * per-query count line.
 */
int run_multi(const CliOptions& options,
              const multi::ProductDescendEngine& engine,
              const std::string& source_name, const PaddedString& document,
              std::uint64_t compile_ns, OutputWriter& out)
{
    validate_document(options, document);
    const std::string label = file_label(options, source_name);

    multi::CollectingMultiSink sink(engine.query_set().size());
    RunStats stats = engine.run_with_stats(document, sink);
    if (!stats.status.ok()) {
        return report_failure(label, stats.status);
    }
    std::size_t matches = 0;
    for (std::size_t q = 0; q < engine.query_set().size(); ++q) {
        // Each query prints, elides and totals on its own, in set order
        // (document order within a query).
        MatchPrinter printer(options, out);
        printer.bind(document);
        printer.set_label(label + "query " + std::to_string(q) + ": ");
        for (std::size_t offset : sink.offsets(q)) {
            printer.on_match(offset);
        }
        printer.finish();
        matches += printer.matches();
        stats.counters.merge(printer.counters());
    }
    if (options.stats) {
        print_run_report(engine.name(), document, matches, std::move(stats),
                         compile_ns);
    }
    return 0;
}

/** Builds the stream options shared by both NDJSON paths: error policy,
 *  stream budget, and the per-record deadline (--deadline-ms). */
stream::StreamOptions make_stream_options(const CliOptions& options)
{
    stream::StreamOptions stream_options;
    stream_options.threads = options.threads;
    stream_options.policy = options.fail_fast ? stream::ErrorPolicy::kFailFast
                            : options.retry_scalar
                                ? stream::ErrorPolicy::kRetryScalar
                                : stream::ErrorPolicy::kSkipRecord;
    stream_options.engine = options.engine_options;
    if (options.stream_budget_ms != 0) {
        stream_options.stream_budget =
            RunBudget::within_ms(options.stream_budget_ms);
    }
    stream_options.record_budget_ms = options.deadline_ms;
    return stream_options;
}

/**
 * Feeds the replayed matches of a record stream (single query or fused
 * set) to one MatchPrinter, labelled "record R: " or "query Q record R: ".
 * Offsets are intra-record, so the printer is bound to each record's
 * SUBVIEW: extraction and span extension can never cross into the
 * following record's slice (the record-boundary contract, span.h).
 * Matches arrive in record order, so each record binds once.
 */
class RecordPrinter final : public stream::StreamSink,
                            public multi::MultiStreamSink {
public:
    RecordPrinter(MatchPrinter& printer, const CliOptions& options,
                  const PaddedString& input,
                  const std::vector<stream::RecordSpan>& records)
        : printer_(printer), options_(options), input_(input), records_(records)
    {
    }

    void on_match(std::size_t record, std::size_t offset) override
    {
        on_match(kNoQuery, record, offset);
    }

    void on_match(std::size_t query, std::size_t record,
                  std::size_t offset) override
    {
        if (!options_.count_only && (record != record_ || query != query_)) {
            if (record != record_) {
                const stream::RecordSpan& span = records_[record];
                printer_.bind(
                    PaddedView(input_).subview(span.begin, span.end - span.begin));
            }
            record_ = record;
            query_ = query;
            label_.clear();
            if (query != kNoQuery) {
                label_ += "query " + std::to_string(query) + " ";
            }
            label_ += "record " + std::to_string(record) + ": ";
            printer_.set_label(label_);
        }
        printer_.on_match(offset);
    }

    void on_record_error(std::size_t record,
                         const EngineStatus& status) override
    {
        // Absolute stream position: span begin + intra-record offset,
        // so the byte can be seeked to directly in the input file.
        std::fprintf(stderr, "descend-cli: record %zu at byte %zu: %s\n",
                     record, records_[record].begin + status.offset,
                     to_string(status).c_str());
    }

private:
    static constexpr std::size_t kNoQuery = static_cast<std::size_t>(-1);

    MatchPrinter& printer_;
    const CliOptions& options_;
    const PaddedString& input_;
    const std::vector<stream::RecordSpan>& records_;
    std::size_t record_ = kNoQuery;
    std::size_t query_ = kNoQuery;
    std::string label_;
};

/**
 * NDJSON: SIMD record splitting + parallel sharded execution over the one
 * padded input buffer (see src/descend/stream), one query or a fused set
 * (N queries x M records off one splitter pass). Matches arrive in
 * document order regardless of the thread count; the trailing lines carry
 * no label.
 */
template <typename Executor>
int run_stream(const CliOptions& options, const Executor& executor,
               std::string engine_name, std::uint64_t compile_ns,
               const PaddedString& input, OutputWriter& out)
{
    obs::PhaseStopwatch split_watch;
    std::vector<stream::RecordSpan> records = stream::split_records(
        input, simd::kernels_for(options.engine_options.simd));
    const std::uint64_t split_ns = split_watch.elapsed_ns();

    MatchPrinter printer(options, out);
    RecordPrinter sink(printer, options, input, records);
    stream::StreamResult result = executor.run_records(input, records, sink);
    printer.set_label("");
    printer.finish();
    result.counters.merge(printer.counters());
    if (options.stats) {
        obs::StreamReport report;
        report.engine = std::move(engine_name);
        report.document_bytes = input.size();
        report.records = result.records;
        report.matches = result.matches;
        report.failed_records = result.failed_records;
        report.record_blocks = result.record_blocks;
        report.counters = result.counters;
        report.timings = result.timings;
        report.timings.add(obs::Phase::kCompile, compile_ns);
        report.timings.add(obs::Phase::kSplit, split_ns);
        report.error_tally = result.error_tally;
        std::fprintf(stderr, "%s\n", obs::to_json(report).c_str());
    }
    return result.ok() ? 0 : exit_code_for(result.first_error);
}

int run_ndjson(const CliOptions& options, const PaddedString& input,
               OutputWriter& out)
{
    const stream::StreamOptions stream_options = make_stream_options(options);
    obs::PhaseStopwatch compile_watch;
    if (options.queries.size() > 1) {
        const multi::MultiStreamExecutor executor =
            multi::MultiStreamExecutor::for_queries(options.queries,
                                                    stream_options);
        return run_stream(options, executor, executor.engine().name(),
                          compile_watch.elapsed_ns(), input, out);
    }
    const stream::StreamExecutor executor(
        automaton::CompiledQuery::compile(options.queries.front()),
        stream_options);
    return run_stream(options, executor, "descend",
                      compile_watch.elapsed_ns(), input, out);
}

}  // namespace

int main(int argc, char** argv)
{
    CliOptions options;
    if (!parse_args(argc, argv, options)) {
        usage();
        return 2;
    }
    if (options.ndjson && options.engine != "descend") {
        std::fputs("descend-cli: --ndjson supports only the descend engine\n",
                   stderr);
        return 2;
    }
    if (options.project != project::ProjectionMode::kNone &&
        (options.count_only || options.offsets_only)) {
        std::fputs("descend-cli: --project conflicts with --count/--offsets\n",
                   stderr);
        return 2;
    }
    if (options.fail_fast && options.retry_scalar) {
        std::fputs("descend-cli: --fail-fast and --retry-scalar conflict\n",
                   stderr);
        return 2;
    }
    if (options.deadline_ms != 0 && !options.ndjson) {
        // Whole-run deadline, measured from here (per record under
        // --ndjson, where make_stream_options() picks it up instead).
        options.engine_options.budget =
            RunBudget::within_ms(options.deadline_ms);
    }
    const bool multi = options.queries.size() > 1;
    if (multi && options.engine != "descend") {
        std::fputs(
            "descend-cli: multiple --query/--queries need the descend engine\n",
            stderr);
        return 2;
    }
    try {
        obs::PhaseStopwatch compile_watch;
        std::unique_ptr<JsonPathEngine> engine =
            (options.ndjson || multi) ? nullptr : make_engine(options);
        std::unique_ptr<multi::ProductDescendEngine> multi_engine;
        if (multi && !options.ndjson) {
            multi_engine = std::make_unique<multi::ProductDescendEngine>(
                multi::MultiQuery::compile(options.queries),
                options.engine_options);
        }
        const std::uint64_t compile_ns = compile_watch.elapsed_ns();
        OutputWriter out;
        auto run = [&](const std::string& name, const PaddedString& doc) {
            if (options.ndjson) {
                return run_ndjson(options, doc, out);
            }
            return multi ? run_multi(options, *multi_engine, name, doc,
                                     compile_ns, out)
                         : run_on(options, *engine, name, doc, compile_ns, out);
        };
        auto dispatch = [&](const std::string& name, const PaddedString& doc) {
            const int status = run(name, doc);
            out.flush();
            return status;
        };
        if (options.files.empty()) {
            return dispatch("<stdin>", read_stdin());
        }
        for (const std::string& file : options.files) {
            PaddedString document = [&] {
                try {
                    return PaddedString::from_file(file);
                } catch (const Error& error) {
                    std::fprintf(stderr, "descend-cli: %s\n", error.what());
                    std::exit(5);  // file I/O
                }
            }();
            int status = dispatch(file, document);
            if (status != 0) {
                return status;
            }
        }
        return 0;
    } catch (const QueryError& error) {
        std::fprintf(stderr, "descend-cli: %s\n", error.what());
        return 2;  // a malformed query is a usage error
    } catch (const LimitError& error) {
        std::fprintf(stderr, "descend-cli: %s\n", error.what());
        return 4;  // resource limit (e.g. --validate depth)
    } catch (const ParseError& error) {
        std::fprintf(stderr, "descend-cli: %s\n", error.what());
        return 3;  // malformed input document (--validate)
    } catch (const Error& error) {
        std::fprintf(stderr, "descend-cli: %s\n", error.what());
        return 1;
    }
}
