/**
 * @file
 * Parallel sharded execution of a fused query SET over a record stream:
 * N queries × M records off ONE splitter pass and one classification pass
 * per record.
 *
 * Runs on the single-query executor's record scheduler
 * (stream/record_scheduler.h): workers claim contiguous batches of
 * records from an atomic cursor and run the fused engine zero-copy over
 * each record's subview; per-(query, record) match sets are buffered per
 * batch and replayed in document order — records ascending, queries
 * ascending within a record, offsets ascending within a query — after the
 * workers join, so the sink observes a deterministic order for every
 * thread count and never needs to be thread-safe.
 *
 * Failure semantics are per record and inherited from StreamOptions'
 * ErrorPolicy: a record whose fused run fails (the document stream is one
 * byte stream — a malformed record fails the set as a whole) contributes
 * no matches for ANY query; kSkipRecord reports it and keeps going,
 * kFailFast stops the stream at the first failing record in document
 * order, exactly as the single-query executor does.
 */
#pragma once

#include <string>
#include <vector>

#include "descend/multi/product_engine.h"
#include "descend/stream/record_splitter.h"
#include "descend/stream/stream_executor.h"

namespace descend::multi {

/** Receiver of fused stream results, in the deterministic replay order. */
class MultiStreamSink {
public:
    virtual ~MultiStreamSink() = default;

    /** @param offset byte offset relative to the record's span begin. */
    virtual void on_match(std::size_t query_index, std::size_t record_index,
                          std::size_t offset) = 0;

    /** A record whose fused run failed (affects every query; the default
     *  ignores it — the aggregate StreamResult still counts it). */
    virtual void on_record_error(std::size_t record_index,
                                 const EngineStatus& status)
    {
        (void)record_index;
        (void)status;
    }
};

/** Counts matches per query and failed records — the benchmark sink. */
class CountingMultiStreamSink final : public MultiStreamSink {
public:
    explicit CountingMultiStreamSink(std::size_t num_queries)
        : counts_(num_queries)
    {
    }

    void on_match(std::size_t query_index, std::size_t, std::size_t) override
    {
        ++counts_[query_index];
    }

    void on_record_error(std::size_t, const EngineStatus&) override
    {
        ++failed_records_;
    }

    std::size_t count(std::size_t query_index) const
    {
        return counts_[query_index];
    }

    std::size_t failed_records() const noexcept { return failed_records_; }

private:
    std::vector<std::size_t> counts_;
    std::size_t failed_records_ = 0;
};

/** Collects (query, record, offset) triples and record errors. */
class CollectingMultiStreamSink final : public MultiStreamSink {
public:
    struct Match {
        std::size_t query = 0;
        std::size_t record = 0;
        std::size_t offset = 0;

        friend bool operator==(const Match& a, const Match& b) noexcept
        {
            return a.query == b.query && a.record == b.record &&
                   a.offset == b.offset;
        }
    };

    void on_match(std::size_t query_index, std::size_t record_index,
                  std::size_t offset) override
    {
        matches_.push_back({query_index, record_index, offset});
    }

    void on_record_error(std::size_t record_index,
                         const EngineStatus& status) override
    {
        errors_.push_back({record_index, status});
    }

    const std::vector<Match>& matches() const noexcept { return matches_; }
    const std::vector<stream::CollectingStreamSink::RecordError>& errors()
        const noexcept
    {
        return errors_;
    }

private:
    std::vector<Match> matches_;
    std::vector<stream::CollectingStreamSink::RecordError> errors_;
};

/** Runs a fused query set over NDJSON streams; reusable across streams.
 *  The engine is compiled ONCE here and shared read-only by every worker
 *  thread — the whole point of set compilation: a 1k-query product
 *  automaton amortizes across all records and shards. */
class MultiStreamExecutor {
public:
    explicit MultiStreamExecutor(MultiQuery queries,
                                 stream::StreamOptions options = {})
        : MultiStreamExecutor(
              ProductDescendEngine(std::move(queries), options.engine), options)
    {
    }

    /** Runs an already-built @p engine; its options stand in for
     *  `options.engine`. */
    MultiStreamExecutor(ProductDescendEngine engine,
                        stream::StreamOptions options)
        : engine_(std::move(engine)), options_(options)
    {
        options_.engine = engine_.options();
    }

    /** Convenience: parse, compile and wrap a query set. */
    static MultiStreamExecutor for_queries(
        const std::vector<std::string>& query_texts,
        stream::StreamOptions options = {})
    {
        return MultiStreamExecutor(MultiQuery::compile(query_texts), options);
    }

    /** Splits @p input into records and runs the set over each. The
     *  aggregate's `matches` sums over all queries. */
    stream::StreamResult run(PaddedView input, MultiStreamSink& sink) const;

    /** Runs over records already split from @p input. */
    stream::StreamResult run_records(PaddedView input,
                                     const std::vector<stream::RecordSpan>& records,
                                     MultiStreamSink& sink) const;

    const ProductDescendEngine& engine() const noexcept { return engine_; }
    const stream::StreamOptions& options() const noexcept { return options_; }

private:
    ProductDescendEngine engine_;
    stream::StreamOptions options_;
};

}  // namespace descend::multi
