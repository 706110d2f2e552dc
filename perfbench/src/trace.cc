#include "trace.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace perfbench {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    // Spans are stored as they close, so a parent follows its children.
    std::int64_t origin = spans_.empty() ? 0 : spans_.front().beginNs;
    for (const Span &s : spans_)
        origin = std::min(origin, s.beginNs);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    std::fputs("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"perfbench traced pass\"}}",
               f);
    for (const Span &s : spans_) {
        // Timestamps are microseconds with nanosecond decimals, so nesting
        // survives the round trip exactly.
        const std::int64_t ts = s.beginNs - origin;
        const std::int64_t dur = s.endNs - s.beginNs;
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%" PRId64 ".%03" PRId64
                     ",\"dur\":%" PRId64 ".%03" PRId64,
                     jsonEscape(s.name).c_str(), ts / 1000, ts % 1000,
                     dur / 1000, dur % 1000);
        if (!s.args.empty())
            std::fprintf(f, ",\"args\":{%s}", s.args.c_str());
        std::fputs("}", f);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench
