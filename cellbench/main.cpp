// cellbench: the real-cell benchmark of rfabm.
//
// Usage:
//   cellbench --workload power_sweep|die_screen|retest_warm --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--program FILE]
//             [--expect-digest HEX]
//
// Prints the pass digest and host-speed diagnostics, then as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, host.* included (and a Chrome trace lands in the out dir).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

std::string metrics_json(const std::vector<cellbench::Metric>& metrics) {
    std::string out = "{";
    char buf[256];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const cellbench::Metric& m = metrics[i];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                      m.unit.c_str());
        out += buf;
    }
    return out + "}";
}

int usage() {
    std::fprintf(stderr,
                 "usage: cellbench --workload power_sweep|die_screen|retest_warm --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--program FILE] "
                 "[--expect-digest HEX]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    cellbench::RunOptions opt;
    std::string workload;
    std::string expect_digest;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* value = argv[i + 1];
        if (key == "--workload") {
            workload = value;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(value, nullptr, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(value, nullptr);
        } else if (key == "--trace") {
            opt.trace = std::strcmp(value, "0") != 0;
        } else if (key == "--out-dir") {
            opt.out_dir = value;
        } else if (key == "--program") {
            opt.program_path = value;
        } else if (key == "--expect-digest") {
            expect_digest = value;
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0 || !cellbench::parse_workload(workload, &opt.workload)) return usage();

    cellbench::RunResult r;
    try {
        r = cellbench::run_workload(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cellbench: %s\n", e.what());
        return 1;
    }
    if (!expect_digest.empty() && r.digest != expect_digest) {
        r.correct = false;
        r.errors.push_back("digest " + r.digest + " differs from the recorded " + expect_digest);
    }
    for (const std::string& e : r.errors) std::fprintf(stderr, "cellbench: INCORRECT: %s\n", e.c_str());
    std::printf("digest %s passes %zu\n", r.digest.c_str(), r.passes);
    std::printf("host %s\n", metrics_json(r.host).c_str());
    if (opt.trace) std::printf("end_to_end %s\n", metrics_json(r.end_to_end).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                metrics_json(opt.trace ? r.per_layer : r.end_to_end).c_str());
    return 0;
}
