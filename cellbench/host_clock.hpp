// Host-speed normalization for single-thread timing.
//
// One thread doing fixed work on a shared VM runs at speeds up to ~2x
// apart, in stretches of seconds, independently per core.  A raw
// wall-clock metric therefore follows the host, not the code.  The
// HostClock divides that drift out on the measuring thread itself:
//
//   * a ReferenceSlice — about 1.5 ms of fixed dense-LU work on private
//     data, compiled here and never calling the program — is run whenever
//     `interval_s` of program time has passed (polled between program
//     calls, and from inside transient solves by a StepObserver);
//   * the program time between two slices is divided by the median
//     duration of the nine slices around it (four before, four after, as
//     far as they are logged) and multiplied by the nominal slice duration,
//     so it reads as seconds at this host's full speed.  The median ignores
//     slices a preemption stretched; a mean of the two adjacent slices left
//     normalized pass times 6% higher on the slowest third of passes than on
//     the fastest, the median 3%.  normalized() is the one normalizer: the
//     end-to-end intervals (since()) and every per-layer span use it;
//   * slice time is excluded from every program interval that encloses it.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace cellbench {

/// Nominal duration of one ReferenceSlice::run() at full speed: the 10th
/// percentile of slice times on the recording host (4-vCPU VM, g++ 12.2,
/// RelWithDebInfo) while it ran fast; see README.md.
inline constexpr double kSliceNominalS = 1.5e-3;

/// Fixed work whose duration measures how fast this core runs right now.
///
/// Dense LU alone: interleaved with fixed transient steps of the chip on the
/// reference host, its time slowed as much as the steps did (p90/p10 1.83
/// vs 1.86; log-log slope 1.01).  An exp/sqrt/log share slowed only 1.34x
/// and made normalized times follow the host, so it was dropped.
class ReferenceSlice {
  public:
    ReferenceSlice();
    /// Run the slice once.  Returns a checksum so the work cannot be elided.
    double run();

  private:
    static constexpr int kN = 32;        ///< dense LU order (chip MNA scale)
    static constexpr int kLuReps = 200;  ///< factor + solve repetitions
    std::vector<double> a0_;  ///< pristine matrix (row-major kN x kN)
    std::vector<double> a_;   ///< work copy
    std::vector<double> b_;   ///< right-hand side / solution
};

/// One closed interval of the measuring thread's timeline.
struct Interval {
    double wall_s = 0.0;        ///< raw wall time, slices included
    double program_s = 0.0;     ///< raw wall time minus slice time
    double normalized_s = 0.0;  ///< program time at full host speed
    double slice_s = 0.0;       ///< time spent in slices
    std::size_t slices = 0;
};

class HostClock {
  public:
    using NowFn = std::function<double()>;  ///< monotonic seconds
    using SliceFn = std::function<void()>;  ///< runs one slice
    /// Observer of every slice (start, end), e.g. the tracer's host.slice span.
    using SliceHook = std::function<void(double start, double end)>;

    struct Options {
        double interval_s = 0.05;  ///< program time between slices
        double nominal_s = kSliceNominalS;
    };

    /// The real clock (steady_clock) and the real ReferenceSlice.
    HostClock();
    /// Injected clock and slice, for tests.
    HostClock(Options options, NowFn now, SliceFn slice);

    double now() const { return now_(); }

    /// Cheap check, called often on the measuring thread: runs a slice once
    /// interval_s of program time has passed since the last one.
    void poll() {
        if (enabled_ && now_() - last_slice_end_ >= options_.interval_s) sample();
    }

    /// Run a slice now, closing the current program segment.
    void sample();

    /// Snapshot for since(); takes a slice so the interval starts on one.
    struct Mark {
        double wall = 0.0;
        Interval totals;
    };
    Mark mark();
    /// The interval from @p start to now; takes a slice so it ends on one,
    /// and normalizes it with the slices logged up to that one.
    Interval since(const Mark& start);

    /// Program time inside the span [t0, t1] at full host speed.  Each
    /// program segment (the time between two slices) the span overlaps
    /// counts with its overlap x nominal / the median of slices k-4 .. k+4
    /// of segment k, as far as they are logged now.  Span ends never fall
    /// inside a slice: both run on the measuring thread.
    double normalized(double t0, double t1) const;

    /// Raw seconds spent in slices so far (for subtracting from spans).
    double slice_total_s() const { return totals_.slice_s; }
    const std::vector<double>& slice_log() const { return slice_log_; }
    const Options& options() const { return options_; }

    /// Detach the sampler: poll() stops running slices (sample() still
    /// does).  Used to show that slices never change program outputs.
    void set_enabled(bool enabled) { enabled_ = enabled; }
    void set_slice_hook(SliceHook hook) { hook_ = std::move(hook); }

  private:
    Options options_;
    NowFn now_;
    SliceFn slice_;
    SliceHook hook_;
    bool enabled_ = true;
    double origin_ = 0.0;  ///< start of segment 0
    double last_slice_end_ = 0.0;
    Interval totals_;  ///< raw sums; normalized_s is computed per interval
    std::vector<double> slice_log_;    ///< duration of slice k
    std::vector<double> slice_start_;  ///< start of slice k (end of segment k)
    std::vector<double> slice_end_;    ///< end of slice k (start of segment k+1)
};

}  // namespace cellbench
