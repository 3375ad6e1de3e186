#include "host_clock.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace cellbench {

ReferenceSlice::ReferenceSlice() : a0_(kN * kN), a_(kN * kN), b_(kN) {
    // A fixed, well-conditioned, diagonally dominant matrix with a full
    // fill pattern, so partial pivoting and every row update do real work.
    std::uint64_t s = 0x9E3779B97F4A7C15ULL;
    auto next = [&s] {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return static_cast<double>(s >> 11) * 0x1.0p-53;
    };
    for (int i = 0; i < kN; ++i) {
        double row = 0.0;
        for (int j = 0; j < kN; ++j) {
            const double v = next() - 0.5;
            a0_[i * kN + j] = v;
            row += std::fabs(v);
        }
        a0_[i * kN + i] = row + 1.0;
    }
}

double ReferenceSlice::run() {
    double check = 0.0;
    for (int rep = 0; rep < kLuReps; ++rep) {
        a_ = a0_;
        for (int i = 0; i < kN; ++i) b_[i] = 1.0 + 1e-3 * (i + rep);
        // Doolittle LU with partial pivoting, then forward/back substitution.
        for (int k = 0; k < kN; ++k) {
            int p = k;
            for (int i = k + 1; i < kN; ++i) {
                if (std::fabs(a_[i * kN + k]) > std::fabs(a_[p * kN + k])) p = i;
            }
            if (p != k) {
                for (int j = 0; j < kN; ++j) std::swap(a_[k * kN + j], a_[p * kN + j]);
                std::swap(b_[k], b_[p]);
            }
            const double inv = 1.0 / a_[k * kN + k];
            for (int i = k + 1; i < kN; ++i) {
                const double f = a_[i * kN + k] * inv;
                if (f == 0.0) continue;
                a_[i * kN + k] = f;
                for (int j = k + 1; j < kN; ++j) a_[i * kN + j] -= f * a_[k * kN + j];
                b_[i] -= f * b_[k];
            }
        }
        for (int i = kN - 1; i >= 0; --i) {
            double acc = b_[i];
            for (int j = i + 1; j < kN; ++j) acc -= a_[i * kN + j] * b_[j];
            b_[i] = acc / a_[i * kN + i];
        }
        check += b_[rep % kN];
    }
    return check;
}

namespace {

double steady_seconds() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

HostClock::HostClock()
    : HostClock(Options{}, steady_seconds, [slice = std::make_shared<ReferenceSlice>()] {
          static volatile double sink = 0.0;
          sink = sink + slice->run();
      }) {}

HostClock::HostClock(Options options, NowFn now, SliceFn slice)
    : options_(options), now_(std::move(now)), slice_(std::move(slice)) {
    origin_ = last_slice_end_ = now_();
}

void HostClock::sample() {
    const double start = now_();
    const double segment = start - last_slice_end_;
    slice_();
    const double end = now_();
    const double d = end - start;
    totals_.program_s += segment;
    totals_.slice_s += d;
    totals_.wall_s += segment + d;
    ++totals_.slices;
    last_slice_end_ = end;
    slice_log_.push_back(d);
    slice_start_.push_back(start);
    slice_end_.push_back(end);
    if (hook_) hook_(start, end);
}

HostClock::Mark HostClock::mark() {
    sample();
    return Mark{last_slice_end_, totals_};
}

Interval HostClock::since(const Mark& start) {
    sample();
    Interval out;
    out.wall_s = last_slice_end_ - start.wall;
    out.program_s = totals_.program_s - start.totals.program_s;
    out.normalized_s = normalized(start.wall, last_slice_end_);
    out.slice_s = totals_.slice_s - start.totals.slice_s;
    out.slices = totals_.slices - start.totals.slices;
    return out;
}

double HostClock::normalized(double t0, double t1) const {
    constexpr std::size_t kHalf = 4;
    const std::size_t n = slice_log_.size();
    // Segment k runs from the end of slice k-1 to the start of slice k; the
    // segment after the last slice is still open.  Start at the first
    // segment that ends after t0.
    std::size_t k = static_cast<std::size_t>(
        std::upper_bound(slice_start_.begin(), slice_start_.end(), t0) - slice_start_.begin());
    double out = 0.0;
    std::vector<double> window;
    for (; k <= n; ++k) {
        const double begin = k == 0 ? origin_ : slice_end_[k - 1];
        if (begin >= t1) break;
        const double end = k < n ? slice_start_[k] : t1;
        const double program = std::min(end, t1) - std::max(begin, t0);
        if (program <= 0.0) continue;
        const std::size_t lo = k >= kHalf ? k - kHalf : 0;
        window.assign(slice_log_.begin() + static_cast<std::ptrdiff_t>(lo),
                      slice_log_.begin() + static_cast<std::ptrdiff_t>(std::min(n, k + kHalf + 1)));
        double speed = options_.nominal_s;  // no slice logged yet: raw time
        if (!window.empty()) {
            auto mid = window.begin() + static_cast<std::ptrdiff_t>(window.size() / 2);
            std::nth_element(window.begin(), mid, window.end());
            if (*mid > 0.0) speed = *mid;
        }
        out += program * options_.nominal_s / speed;
    }
    return out;
}

}  // namespace cellbench
