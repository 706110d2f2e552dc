/**
 * @file
 * Host-time spans for the traced pass. Every span is recorded on the
 * benchmark's own thread around one call into a simulator layer, so spans
 * nest strictly and a layer's self time is its span minus its direct
 * children. Spans stay in memory and are written out once, as Chrome
 * trace-event JSON (Perfetto and chrome://tracing open it).
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One closed span. @p args is a JSON object body ("" for none). */
struct Span {
    const char *name = "";
    std::int64_t beginNs = 0;
    std::int64_t endNs = 0;
    std::string args;
};

/** Nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Collects spans in memory; not thread-safe (one tracing thread). */
class Tracer
{
  public:
    /** RAII span: opens at construction, closes at destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tr, const char *name)
            : tr_(tr), name_(name), begin_(nowNs())
        {
        }
        ~Scope() { tr_.add(name_, begin_, nowNs(), std::move(args_)); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Attach a JSON object body shown in the trace viewer. */
        void setArgs(std::string args) { args_ = std::move(args); }

      private:
        Tracer &tr_;
        const char *name_;
        std::int64_t begin_;
        std::string args_;
    };

    void
    add(const char *name, std::int64_t begin_ns, std::int64_t end_ns,
        std::string args = {})
    {
        spans_.push_back({name, begin_ns, end_ns, std::move(args)});
    }

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChrome(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** Escape @p s for use inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
