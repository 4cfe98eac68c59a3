/**
 * @file
 * Projection sinks: the consumers of extended value spans.
 *
 * The engine side of the seam is span extension (span.h) driving a
 * ProjectionSink with one (span, bytes) pair per match, in document
 * order. The sinks decide what materialization means:
 *
 *  - SliceSink      zero-copy raw slices into the input view
 *  - NdjsonSink     one matched value per output line, re-serialized
 *                   compactly (string bytes, including escapes, verbatim)
 *  - CountingProjectionSink   counts + byte totals, the overhead baseline
 *
 * The on-demand navigable view (LazyValue) is not a sink — it wraps one
 * span after the fact; see lazy_value.h.
 *
 * Lifetime: the string_view handed to on_value aliases the document
 * buffer the spans were extended over. Sinks that outlive the buffer
 * (NdjsonSink's output, counting) copy what they keep; SliceSink
 * deliberately does not — its slices are valid only while the input is.
 */
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "descend/project/span.h"

namespace descend::project {

/** Receiver of projected values, invoked in document order. */
class ProjectionSink {
public:
    virtual ~ProjectionSink() = default;

    /**
     * One matched value.
     *
     * @param span  the value's byte range, relative to the view it was
     *              extended over (a record subview in NDJSON mode)
     * @param bytes the value's raw bytes (aliases the input buffer)
     */
    virtual void on_value(const ValueSpan& span, std::string_view bytes) = 0;
};

/** Collects zero-copy slices (and their spans) into the input view. */
class SliceSink final : public ProjectionSink {
public:
    void on_value(const ValueSpan& span, std::string_view bytes) override
    {
        spans_.push_back(span);
        slices_.push_back(bytes);
    }

    const std::vector<ValueSpan>& spans() const noexcept { return spans_; }
    const std::vector<std::string_view>& slices() const noexcept
    {
        return slices_;
    }

private:
    std::vector<ValueSpan> spans_;
    std::vector<std::string_view> slices_;
};

/** Tallies values and bytes without materializing anything: the
 *  count-only baseline the projection benchmarks compare against. */
class CountingProjectionSink final : public ProjectionSink {
public:
    void on_value(const ValueSpan& span, std::string_view) override
    {
        ++values_;
        bytes_ += span.size();
    }

    std::size_t values() const noexcept { return values_; }
    std::size_t bytes() const noexcept { return bytes_; }

private:
    std::size_t values_ = 0;
    std::size_t bytes_ = 0;
};

/**
 * Re-serializes each matched value onto one NDJSON output line.
 *
 * The line is the value with insignificant whitespace (outside strings)
 * removed and everything else byte-verbatim — string contents keep their
 * original escapes untouched. Because raw control characters are illegal
 * inside JSON strings, stripping outside-string whitespace is exactly
 * what guarantees the one-line-per-value invariant, with no re-escaping
 * pass that could perturb the input's representation choices.
 */
class NdjsonSink final : public ProjectionSink {
public:
    explicit NdjsonSink(std::ostream& out) noexcept : out_(&out) {}

    void on_value(const ValueSpan& span, std::string_view bytes) override;

    std::size_t lines() const noexcept { return lines_; }

private:
    std::ostream* out_;
    std::string scratch_;
    std::size_t lines_ = 0;
};

/**
 * Appends @p value to @p out with insignificant whitespace removed
 * (NdjsonSink's per-value transform, exposed for tests and the CLI's
 * printer). String bytes are copied verbatim, escapes included. @p value
 * is one value's span as extended (span.h): a string or atom is copied
 * whole, since its span holds no whitespace outside a string.
 */
void append_compact_value(std::string_view value, std::string& out);

}  // namespace descend::project
