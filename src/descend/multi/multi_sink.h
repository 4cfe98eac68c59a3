/**
 * @file
 * Receivers of fused multi-query matches. ProductDescendEngine reports
 * every match through a MultiSink with input query indexing: duplicates
 * deduplicated at compile time each receive their own callbacks.
 */
#pragma once

#include <cstddef>
#include <vector>

namespace descend::multi {

/** Receiver of fused-run matches, tagged with the originating query. */
class MultiSink {
public:
    virtual ~MultiSink() = default;

    /** @param query_index position of the query in the compiled set. */
    virtual void on_match(std::size_t query_index, std::size_t offset) = 0;
};

/** Collects per-query match offsets (document order within each query). */
class CollectingMultiSink final : public MultiSink {
public:
    explicit CollectingMultiSink(std::size_t num_queries)
        : offsets_(num_queries)
    {
    }

    void on_match(std::size_t query_index, std::size_t offset) override
    {
        offsets_[query_index].push_back(offset);
    }

    const std::vector<std::size_t>& offsets(std::size_t query_index) const
    {
        return offsets_[query_index];
    }

    const std::vector<std::vector<std::size_t>>& all() const noexcept
    {
        return offsets_;
    }

private:
    std::vector<std::vector<std::size_t>> offsets_;
};

/** Counts matches per query — the benchmark sink. */
class CountingMultiSink final : public MultiSink {
public:
    explicit CountingMultiSink(std::size_t num_queries) : counts_(num_queries) {}

    void on_match(std::size_t query_index, std::size_t) override
    {
        ++counts_[query_index];
    }

    std::size_t count(std::size_t query_index) const
    {
        return counts_[query_index];
    }

    std::size_t total() const noexcept
    {
        std::size_t sum = 0;
        for (std::size_t c : counts_) {
            sum += c;
        }
        return sum;
    }

private:
    std::vector<std::size_t> counts_;
};

}  // namespace descend::multi
