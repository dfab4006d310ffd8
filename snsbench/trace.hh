/**
 * @file
 * Spans of the traced run (snsbench/README.md §Tracing).
 *
 * The benchmark records a span around each public call it makes into a
 * layer: a name, a start, an end, the span that caused it, and (for
 * served requests) a request id. Spans stay in memory and are written
 * out when the run ends; a layer's self time is its span time minus the
 * part its child spans cover. Nothing inside src/ is instrumented.
 */

#ifndef SNSBENCH_TRACE_HH
#define SNSBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hh"

namespace snsbench {

class Tracer
{
  public:
    static constexpr int64_t kNoParent = -1;

    /** Open a span; returns its id. */
    int64_t begin(const char *name, int64_t parent = kNoParent,
                  uint64_t request = 0);
    /** Close span `id`. */
    void end(int64_t id);

    /** Total self time per span name, in milliseconds. */
    std::map<std::string, double> selfTimeMs() const;

    /** Write every span as one JSON line to `path`. */
    void write(const std::string &path) const;

    void clear();

  private:
    struct Span
    {
        const char *name = nullptr;
        int64_t start_ns = 0;
        int64_t end_ns = 0;
        int64_t parent = kNoParent;
        uint64_t request = 0;
    };

    mutable std::mutex mutex_; ///< guards spans_
    std::vector<Span> spans_;
    Clock::time_point epoch_ = Clock::now();
};

/** RAII span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name,
               int64_t parent = Tracer::kNoParent, uint64_t request = 0)
        : tracer_(tracer),
          id_(tracer ? tracer->begin(name, parent, request)
                     : Tracer::kNoParent)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_ != nullptr)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return id_; }

  private:
    Tracer *tracer_;
    int64_t id_;
};

/** Where the traced run writes its spans: .bench_run/<workload>.trace. */
std::string tracePath(const std::string &workload);

} // namespace snsbench

#endif // SNSBENCH_TRACE_HH
