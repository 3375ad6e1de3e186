// Spans, sample statistics and the output digest of the benchmark.
//
// Spans are recorded around each call the benchmark makes into a layer
// (never inside the program), kept in memory, and written at exit as Chrome
// trace-event JSON (chrome://tracing, Perfetto).  Spans of one campaign
// cell share an id.  A span's program time excludes the host-speed slices
// that ran inside it; its self time further excludes its child spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "host_clock.hpp"

namespace cellbench {

struct Span {
    std::string name;
    std::uint64_t cell = 0;  ///< shared by every span of one campaign cell
    int parent = -1;         ///< index of the enclosing span, -1 at top level
    double start_s = 0.0;
    double end_s = 0.0;
    double slice_s = 0.0;  ///< host-speed slice time inside the span
    double program_s() const { return end_s - start_s - slice_s; }
};

class Tracer {
  public:
    /// @p clock supplies time and the slice accounting; disabled tracers
    /// record nothing and cost one branch per call.
    Tracer(HostClock& clock, bool enabled);

    bool enabled() const { return enabled_; }
    void set_enabled(bool enabled) { enabled_ = enabled; }

    /// Open a span; returns its index (-1 when disabled).
    int begin(const char* name, std::uint64_t cell);
    void end(int index);
    /// Record a finished child span of the innermost open span (host.slice).
    void record(const char* name, double start_s, double end_s);

    const std::vector<Span>& spans() const { return spans_; }
    /// Self program time of every span: its program time minus that of its
    /// direct children.
    std::vector<double> self_program_s() const;

    /// Chrome trace-event JSON ("X" complete events, microseconds).
    std::string chrome_json() const;
    bool write_chrome_json(const std::string& path) const;

  private:
    HostClock& clock_;
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::vector<double> open_slice_;  ///< clock slice total at each open
};

/// RAII span.
class ScopedSpan {
  public:
    ScopedSpan(Tracer& tracer, const char* name, std::uint64_t cell)
        : tracer_(tracer), index_(tracer.begin(name, cell)) {}
    ~ScopedSpan() { tracer_.end(index_); }
    int index() const { return index_; }  ///< -1 when the tracer is disabled
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer& tracer_;
    int index_;
};

// --- statistics -------------------------------------------------------------

/// Median (mean of the middle pair for even counts); 0 for no samples.
double median(std::vector<double> samples);

/// Nearest-rank percentile @p pct (0..100); 0 for no samples.
double percentile(std::vector<double> samples, double pct);

/// The highest percentile of {50, 75, 90, 95, 99, 99.9} that still has at
/// least ten samples beyond it, its value and the sample count.  Falls back
/// to the median (pct 50) when fewer than 20 samples exist.
struct Tail {
    double pct = 50.0;
    double value = 0.0;
    std::size_t samples = 0;
};
Tail tail_percentile(const std::vector<double>& samples);

// --- output digest ----------------------------------------------------------

/// FNV-1a 64 over the bit patterns of a sequence of doubles, in order.
class Digest {
  public:
    Digest& add(double v);
    Digest& add(const std::vector<double>& values) {
        for (const double v : values) add(v);
        return *this;
    }
    std::uint64_t value() const { return hash_; }
    std::string hex() const;

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace cellbench
