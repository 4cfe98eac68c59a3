/**
 * @file
 * The record scheduler both stream executors run on: StreamExecutor for
 * one query and multi::MultiStreamExecutor for a query set.
 *
 * Workers claim contiguous batches of records from an atomic cursor, run
 * each record, and buffer its outcome per batch; after the join, one
 * ordered replay hands the outcomes to the executor's sink in document
 * order. The scheduler owns every policy decision (see StreamOptions and
 * ErrorPolicy): the fail-fast error floor, the stream-budget floor,
 * per-record budgets, the kRetryScalar re-run, and the per-shard obs
 * merge. An executor supplies only two callables:
 *
 *  - make_runner() builds one record runner per worker (the worker's
 *    scratch lives in it). runner(record, budget, scalar, matches) runs
 *    one record under @c budget (null: the engine's own budget) on the
 *    primary tier, or on the scalar tier when @c scalar is set; when the
 *    run succeeds it stores the record's matches in @c matches. It
 *    returns the run's RunStats.
 *  - replay(outcome) delivers one outcome to the sink — its matches, or
 *    on_record_error() for a failed record — and returns the number of
 *    matches delivered.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "descend/engine/padded_string.h"
#include "descend/fault/failpoints.h"
#include "descend/obs/counters.h"
#include "descend/obs/timing.h"
#include "descend/stream/record_splitter.h"
#include "descend/stream/stream_executor.h"

namespace descend::stream {

/** One record's buffered run outcome, produced by a worker. */
template <typename Matches>
struct RecordOutcome {
    std::size_t record = 0;
    EngineStatus status;
    /** Populated only when status.ok(), so a failed record's partial
     *  matches can never leak into the sink. */
    Matches matches{};
};

/**
 * Atomic fetch-min. The floor only ever decreases, which is what makes
 * fail-fast deterministic: a worker skips record r only while r > floor,
 * so every record below the *final* floor is guaranteed to have been
 * processed by someone.
 */
inline void lower_floor(std::atomic<std::size_t>& floor, std::size_t candidate)
{
    std::size_t current = floor.load(std::memory_order_relaxed);
    while (candidate < current &&
           !floor.compare_exchange_weak(current, candidate,
                                        std::memory_order_relaxed)) {
    }
}

/** Runs @p records of @p input under @p options (see the file comment for
 *  the two callables). */
template <typename Matches, typename MakeRunner, typename Replay>
StreamResult schedule_records(PaddedView input,
                              const std::vector<RecordSpan>& records,
                              const StreamOptions& options,
                              MakeRunner&& make_runner, Replay&& replay)
{
    constexpr std::size_t kNoError = StreamResult::kNone;
    using Outcome = RecordOutcome<Matches>;

    StreamResult result;
    result.records = records.size();
    if (records.empty()) {
        return result;
    }

    const std::size_t batch_size =
        options.records_per_batch > 0 ? options.records_per_batch : 1;
    const std::size_t num_batches =
        (records.size() + batch_size - 1) / batch_size;
    std::size_t workers = options.threads != 0
                              ? options.threads
                              : std::thread::hardware_concurrency();
    workers = std::min(std::max<std::size_t>(workers, 1), num_batches);

    const bool fail_fast = options.policy == ErrorPolicy::kFailFast;
    const bool retry_scalar = options.policy == ErrorPolicy::kRetryScalar;
    const RunBudget& stream_budget = options.stream_budget;
    const bool stream_governed = stream_budget.active();
    const bool record_governed = options.record_budget_ms > 0;
    std::vector<std::vector<Outcome>> outcomes(num_batches);
    std::atomic<std::size_t> next_batch{0};
    std::atomic<std::size_t> error_floor{kNoError};
    // First record in document order that did not finish because the
    // stream budget tripped. Monotone like error_floor: every record below
    // the final value finished, so the replay below is deterministic in
    // the set of finished records, not in thread interleaving.
    std::atomic<std::size_t> budget_floor{kNoError};

    // Per-shard obs aggregation: each worker owns one registry (no
    // synchronization in the hot path) and the merge below folds them into
    // the stream-level report after the join. Counters/timings are empty
    // when the gate is off; the retry tallies ride the rare failure path
    // and are ungated.
    struct ShardObs {
        obs::Counters counters;
        obs::Timings timings;
        std::size_t record_blocks = 0;
        std::size_t retried = 0;
        std::size_t diverged = 0;
    };
    std::vector<ShardObs> shard_obs(workers);

    auto worker = [&](std::size_t shard) {
        if constexpr (fault::kEnabled) {
            // Deterministic worker stall (payload = milliseconds): lets
            // tests pin down budget floors under scheduling skew.
            fault::maybe_stall(fault::Site::kWorkerStartup);
        }
        ShardObs& local = shard_obs[shard];
        auto runner = make_runner();
        for (;;) {
            std::size_t batch = next_batch.fetch_add(1, std::memory_order_relaxed);
            if (batch >= num_batches) {
                break;
            }
            std::size_t first = batch * batch_size;
            std::size_t last = std::min(first + batch_size, records.size());
            if (stream_governed &&
                stream_budget.exceeded() != StatusCode::kOk) {
                // Budget tripped between batches: everything from this
                // batch on is unfinished. Batches are claimed in
                // ascending order, so `first` bounds every unclaimed
                // record from below.
                lower_floor(budget_floor, first);
                break;
            }
            if (fail_fast && first > error_floor.load(std::memory_order_relaxed)) {
                continue;
            }
            std::vector<Outcome>& out = outcomes[batch];
            out.reserve(last - first);
            bool budget_tripped = false;
            for (std::size_t r = first; r < last; ++r) {
                if (fail_fast && r > error_floor.load(std::memory_order_relaxed)) {
                    break;
                }
                if (stream_governed &&
                    stream_budget.exceeded() != StatusCode::kOk) {
                    lower_floor(budget_floor, r);
                    budget_tripped = true;
                    break;
                }
                const RecordSpan& span = records[r];
                PaddedView record = input.subview(span.begin, span.size());
                Outcome outcome;
                outcome.record = r;
                // Active stream governance replaces the engine's own
                // budget for record runs; a per-record deadline nests
                // inside the stream budget.
                RunBudget record_budget = stream_budget;
                if (record_governed) {
                    record_budget = stream_budget.tightened(
                        RunBudget::Clock::now() +
                        std::chrono::milliseconds(options.record_budget_ms));
                }
                const RunBudget* budget =
                    stream_governed || record_governed ? &record_budget
                                                       : nullptr;
                RunStats run_stats =
                    runner(record, budget, /*scalar=*/false, outcome.matches);
                outcome.status = run_stats.status;
                if constexpr (obs::kEnabled) {
                    local.counters.merge(run_stats.counters);
                    local.timings.merge(run_stats.timings);
                    local.record_blocks +=
                        (span.size() + simd::kBlockSize - 1) / simd::kBlockSize;
                }
                if (!outcome.status.ok() && outcome.status.is_governance() &&
                    stream_governed &&
                    stream_budget.exceeded() != StatusCode::kOk) {
                    // The *stream* budget (not a per-record one) cut this
                    // run short: the record is unfinished, not failed.
                    lower_floor(budget_floor, r);
                    budget_tripped = true;
                    break;
                }
                if (!outcome.status.ok() && retry_scalar &&
                    !outcome.status.is_governance()) {
                    // Degradation re-run on the scalar tier; the scalar
                    // verdict (including its matches) replaces the
                    // original.
                    EngineStatus scalar_status =
                        runner(record, budget, /*scalar=*/true, outcome.matches)
                            .status;
                    ++local.retried;
                    local.counters.add(obs::Counter::kScalarRetries);
                    if (scalar_status.code != outcome.status.code ||
                        scalar_status.offset != outcome.status.offset) {
                        ++local.diverged;
                        local.counters.add(obs::Counter::kTierDivergences);
                    }
                    outcome.status = scalar_status;
                }
                bool failed = !outcome.status.ok();
                if (failed && fail_fast) {
                    lower_floor(error_floor, r);
                }
                out.push_back(std::move(outcome));
                if (fail_fast && failed) {
                    break;
                }
            }
            if (budget_tripped) {
                break;
            }
        }
    };

    if (workers <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t i = 0; i < workers; ++i) {
            pool.emplace_back(worker, i);
        }
        for (std::thread& thread : pool) {
            thread.join();
        }
    }
    for (const ShardObs& shard : shard_obs) {
        result.counters.merge(shard.counters);
        result.timings.merge(shard.timings);
        result.record_blocks += shard.record_blocks;
        result.retried_records += shard.retried;
        result.tier_divergences += shard.diverged;
    }

    // Books a replayed failure in the aggregate.
    auto count_failure = [&](std::size_t record, const EngineStatus& status) {
        ++result.failed_records;
        ++result.error_tally[static_cast<std::size_t>(status.code)];
        if (result.first_error_record == StreamResult::kNone) {
            result.first_error_record = record;
            result.first_error = status;
            result.first_error_span_begin = records[record].begin;
        }
    };

    // Ordered replay: batches ascend and records ascend within each batch,
    // so a single pass delivers document order to the (single-threaded)
    // sink. Under fail-fast, everything past the floor is discarded — the
    // floor record itself is the stream's one reported error. The budget
    // floor acts the same way, except its floor record has no outcome of
    // its own (it never finished), so its error is synthesized after the
    // replay.
    const std::size_t floor = error_floor.load(std::memory_order_relaxed);
    const std::size_t bfloor = budget_floor.load(std::memory_order_relaxed);
    bool stopped = false;
    bool error_stopped = false;
    for (std::size_t batch = 0; batch < num_batches && !stopped; ++batch) {
        for (const Outcome& outcome : outcomes[batch]) {
            if (outcome.record >= bfloor) {
                // Finished after the budget floor: discarded, like a
                // fail-fast record past the error floor.
                stopped = true;
                break;
            }
            if (fail_fast && outcome.record > floor) {
                stopped = true;
                error_stopped = true;
                break;
            }
            result.matches += replay(outcome);
            if (!outcome.status.ok()) {
                count_failure(outcome.record, outcome.status);
                if (fail_fast) {
                    stopped = true;
                    error_stopped = true;
                    break;
                }
            }
        }
    }
    if (bfloor != kNoError && !error_stopped) {
        // The stream budget stopped the run: synthesize the floor record's
        // governance error. Offset 0 — none of the record was conclusively
        // processed.
        StatusCode code = stream_budget.exceeded();
        if (code == StatusCode::kOk) {
            // The deadline passed mid-run but a cancel token was since
            // reset; the floor is still authoritative.
            code = StatusCode::kDeadlineExceeded;
        }
        Outcome synthesized;
        synthesized.record = bfloor;
        synthesized.status = {code, 0};
        result.budget_stopped = true;
        replay(synthesized);
        count_failure(bfloor, synthesized.status);
    }
    return result;
}

}  // namespace descend::stream
