/**
 * @file
 * Shared helpers of the perfbench tool: clocks, order statistics, JSON
 * fields, argument parsing and the span recorder used by traced runs.
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "descend/workloads/builder.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

inline double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Nearest-rank percentile (q in [0, 1]) of an unsorted sample. */
inline double percentile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(values.size()));
    return values[std::min(rank, values.size() - 1)];
}

inline double median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/** 64-bit FNV-1a: the content key of cached oracle results. */
inline std::uint64_t fnv1a(std::string_view bytes)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

using descend::workloads::JsonBuilder;

/** Appends @p name and a value to @p out. Names and string values must
 *  need no escaping; every one perfbench writes is a name, a path or a
 *  query text without quotes or backslashes. */
inline void field(JsonBuilder& out, std::string_view name, std::string_view text)
{
    out.key(name);
    out.string_value(text);
}
inline void field(JsonBuilder& out, std::string_view name, const char* text)
{
    field(out, name, std::string_view(text));
}
inline void field(JsonBuilder& out, std::string_view name, std::uint64_t number)
{
    out.key(name);
    out.number(number);
}
inline void field(JsonBuilder& out, std::string_view name, bool flag)
{
    out.key(name);
    out.boolean(flag);
}
/** A measured value with all its digits: JsonBuilder::number(double)
 *  keeps six decimals, too few for small ratios and per-byte times. */
inline void field(JsonBuilder& out, std::string_view name, double number)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", number);
    out.key(name);
    out.raw_value(buffer);
}

/** `--name value` pairs and bare `--flag`s of one subcommand. */
class Args {
public:
    Args(int argc, char** argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0) {
                continue;
            }
            if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
                values_[arg.substr(2)] = argv[++i];
            } else {
                values_[arg.substr(2)] = "";
            }
        }
    }
    bool has(const std::string& name) const { return values_.count(name) != 0; }
    std::string get(const std::string& name, const std::string& fallback = "") const
    {
        auto it = values_.find(name);
        return it == values_.end() ? fallback : it->second;
    }
    std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const
    {
        auto it = values_.find(name);
        return it == values_.end() ? fallback : std::stoull(it->second);
    }

private:
    std::map<std::string, std::string> values_;
};

/**
 * Spans of a traced run: name, start, end, parent and the id shared by
 * every span of one query pass or request. Kept in memory; written out
 * when the run ends. A disabled tracer records nothing, so the same code
 * path gives the untraced baseline.
 */
class Tracer {
public:
    struct Span {
        const char* name;
        std::uint64_t start_ns;
        std::uint64_t end_ns;
        std::int32_t parent;  ///< index of the enclosing span, -1 at top level
        std::uint32_t trace_id;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Starts a new query pass or request: later spans share its id. */
    void begin_trace() noexcept { ++trace_id_; }

    /** RAII span around one call into a layer. */
    class Scope {
    public:
        Scope(Tracer& tracer, const char* name) : tracer_(&tracer)
        {
            if (!tracer_->enabled_) {
                return;
            }
            index_ = static_cast<std::int32_t>(tracer_->spans_.size());
            tracer_->spans_.push_back(
                {name, now_ns(), 0, tracer_->open_, tracer_->trace_id_});
            tracer_->open_ = index_;
        }
        ~Scope()
        {
            if (index_ < 0) {
                return;
            }
            Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
            span.end_ns = now_ns();
            tracer_->open_ = span.parent;
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* tracer_;
        std::int32_t index_ = -1;
    };

    const std::vector<Span>& spans() const noexcept { return spans_; }
    void clear() noexcept
    {
        spans_.clear();
        open_ = -1;
        trace_id_ = 0;
    }

    /** Self time per span name: duration minus the time covered by its
     *  direct children (children of one span never overlap here, since
     *  every traced pass is single-threaded). */
    std::map<std::string, double> self_seconds() const
    {
        std::vector<std::uint64_t> child_ns(spans_.size(), 0);
        for (const Span& span : spans_) {
            if (span.parent >= 0) {
                child_ns[static_cast<std::size_t>(span.parent)] +=
                    span.end_ns - span.start_ns;
            }
        }
        std::map<std::string, double> self;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& span = spans_[i];
            self[span.name] +=
                static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-9;
        }
        return self;
    }

private:
    bool enabled_;
    std::vector<Span> spans_;
    std::int32_t open_ = -1;
    std::uint32_t trace_id_ = 0;
};

}  // namespace perfbench
