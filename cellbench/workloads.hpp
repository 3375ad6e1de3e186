// The three real-cell workloads of the benchmark.
//
// Every workload runs on one thread (jobs 1) against the real measurement
// stack: circuit -> core/jtag/lint -> rf.surrogate -> exec.  Campaigns go
// through exec's public entry points with the benchmark's own cell
// closures; each call into a layer is timed from outside (see trace.hpp)
// and host time is normalized by the HostClock (see host_clock.hpp).
//
//   power_sweep  warm-cache campaign: dies x corners x a Pin sweep plus FVC
//                spot checks; the solver and settle loop do the work.
//   die_screen   fresh calibration cache per pass, checked reads, a
//                write-ahead journal and flow admission on every cell.
//   retest_warm  a trained surrogate image is loaded each pass; most reads
//                are served, a fixed share falls back to full solves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cellbench {

enum class Workload { kPowerSweep, kDieScreen, kRetestWarm };
const char* to_string(Workload workload);
bool parse_workload(const std::string& name, Workload* out);

struct RunOptions {
    Workload workload = Workload::kPowerSweep;
    std::uint64_t seed = 1;
    double seconds = 8.0;     ///< start passes while less has elapsed (at least two)
    bool trace = false;       ///< per-layer run (spans on every pass but the first)
    bool sampler = true;      ///< attach the host-speed sampler
    std::string out_dir = ".";   ///< journals, surrogate images, trace file
    std::string program_path;    ///< die_screen admission program
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult {
    bool correct = true;
    std::vector<std::string> errors;  ///< why the run is incorrect
    std::uint64_t attempted = 0;      ///< reads in the timed phase
    std::uint64_t failed = 0;         ///< of which failed the read gate
    std::size_t passes = 0;
    std::string digest;               ///< of every pass (they must agree)
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;    ///< traced runs only, host.* included
    std::vector<Metric> host;         ///< raw-time diagnostics, every run
};

RunResult run_workload(const RunOptions& options);

// --- per-read engine accounting ---------------------------------------------

/// Engine counters around one read.
struct EngineMark {
    std::uint64_t newton = 0;  ///< monotonic over the engine's lifetime
    std::uint64_t steps = 0;   ///< reset by every init() (session open)
    double time = 0.0;         ///< reset by every init() (session open)
};

struct ReadCost {
    std::uint64_t newton = 0;
    std::uint64_t steps = 0;
    double sim_s = 0.0;
};

/// Cost of one read from the counters before and after it.  A read that
/// re-opened its session (checked reads do, every attempt) restarted the
/// step and time counters inside the read, so its steps and simulated time
/// are the post-read values; Newton iterations never reset.
ReadCost read_cost(const EngineMark& before, const EngineMark& after, int reopened_sessions);

}  // namespace cellbench
