#include "trace.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>

namespace snsbench {

int64_t
Tracer::begin(const char *name, int64_t parent, uint64_t request)
{
    const int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now, now, parent, request});
    return static_cast<int64_t>(spans_.size() - 1);
}

void
Tracer::end(int64_t id)
{
    const int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end_ns = now;
}

std::map<std::string, double>
Tracer::selfTimeMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Children of one parent may run concurrently on several threads,
    // so subtract the union of their intervals, clipped to the parent.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size());
    for (const auto &span : spans_) {
        if (span.parent != kNoParent)
            children[static_cast<size_t>(span.parent)].push_back(
                {span.start_ns, span.end_ns});
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        int64_t covered = 0;
        int64_t reach = span.start_ns;
        for (const auto &[start, end] : kids) {
            const int64_t lo = std::max(start, reach);
            const int64_t hi = std::min(end, span.end_ns);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[span.name] +=
            static_cast<double>(span.end_ns - span.start_ns - covered) /
            1e6;
    }
    return self;
}

void
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << "{\"id\": " << i << ", \"name\": \"" << span.name
            << "\", \"start_ns\": " << span.start_ns
            << ", \"end_ns\": " << span.end_ns
            << ", \"parent\": " << span.parent
            << ", \"request\": " << span.request << "}\n";
    }
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
}

std::string
tracePath(const std::string &workload)
{
    std::filesystem::create_directories(".bench_run");
    return ".bench_run/" + workload + ".trace";
}

} // namespace snsbench
