#include "descend/project/sink.h"

#include "descend/util/chars.h"

namespace descend::project {

void append_compact_value(std::string_view value, std::string& out)
{
    if (value.empty() || (value.front() != '{' && value.front() != '[')) {
        // A string or atom span holds no whitespace outside a string.
        out.append(value);
        return;
    }
    bool in_string = false;
    bool escape = false;
    std::size_t run_begin = 0;  // start of the current verbatim run
    for (std::size_t i = 0; i < value.size(); ++i) {
        const char byte = value[i];
        if (in_string) {
            if (escape) {
                escape = false;
            } else if (byte == '\\') {
                escape = true;
            } else if (byte == '"') {
                in_string = false;
            }
            continue;
        }
        if (byte == '"') {
            in_string = true;
            continue;
        }
        if (chars::is_ws_byte(static_cast<std::uint8_t>(byte))) {
            out.append(value, run_begin, i - run_begin);
            run_begin = i + 1;
        }
    }
    out.append(value, run_begin, value.size() - run_begin);
}

void NdjsonSink::on_value(const ValueSpan&, std::string_view bytes)
{
    scratch_.clear();
    append_compact_value(bytes, scratch_);
    scratch_.push_back('\n');
    out_->write(scratch_.data(),
                static_cast<std::streamsize>(scratch_.size()));
    ++lines_;
}

}  // namespace descend::project
