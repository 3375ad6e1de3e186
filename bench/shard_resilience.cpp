// Cost of multi-process supervision: the rfabm_campaignd synthetic campaign
// run single-process vs sharded vs sharded-with-crashes.
//
// Unlike the other benches this one does not run cells in-process: it
// fork/execs the real coordinator (CAMPAIGND_BIN, wired in by CMake) so the
// numbers include everything docs/sharding.md charges for — worker spawn,
// heartbeat pipes, the poll loop, journal merge.  Three phases over the same
// (die x corner) grid:
//   1. single  — --shards 1: the inline path, no workers, compacted journal,
//   2. sharded — --shards N: supervised worker processes + journal merge,
//   3. crashed — --shards N with a worker SIGKILLed mid-shard; the
//      supervisor restarts it with --resume and the merge must still fold to
//      the same bytes,
//   4. rebalanced — --shards N with one worker's disk refusing writes
//      (--chaos disk-full): the worker degrades to in-memory execution, the
//      coordinator re-partitions its unfinished dies onto recovery workers,
//      and the merge must STILL fold to the same bytes.
//
// The acceptance bar (EXPERIMENTS.md) is supervision overhead < 5% and the
// merged campaign journal + output byte-identical across all three phases.
// Only the identity check gates the exit code; wall-clock on shared CI is
// too noisy to fail the build on, so the overhead lands in BENCH_shard.json
// for the record instead.
//
// Usage: shard_resilience [--fast] [--shards N] [--jobs N] [--dies N]
//                         [--out FILE]
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"

namespace {

#ifndef CAMPAIGND_BIN
#error "CMake must define CAMPAIGND_BIN (path to the rfabm_campaignd binary)"
#endif

struct Phase {
    double seconds = 0.0;
    int exit_code = -1;
    std::string out_bytes;  // the --out result file, verbatim
    std::string wal_bytes;  // the merged campaign journal, verbatim
};

std::string slurp(const std::string& path) {
    std::string bytes;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return bytes;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
    std::fclose(f);
    return bytes;
}

/// fork/exec the coordinator with @p args and wait; returns the exit code
/// (or 128+signal when killed).
int run_campaignd(const std::vector<std::string>& args) {
    std::vector<char*> argv;
    std::string bin = CAMPAIGND_BIN;
    argv.push_back(bin.data());
    std::vector<std::string> storage = args;
    for (std::string& a : storage) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) return -1;
    if (pid == 0) {
        // Quiet child: the coordinator narrates supervision on stderr, which
        // would swamp the bench table.  Keep stderr for real errors.
        std::freopen("/dev/null", "w", stdout);
        ::execv(argv[0], argv.data());
        std::_Exit(127);
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
}

Phase run_phase(const std::string& stem, const std::vector<std::string>& extra,
                std::size_t dies, std::size_t envs, std::size_t jobs, int cell_ms) {
    const std::string out = stem + ".out";
    std::remove(out.c_str());
    std::remove((stem + ".wal").c_str());
    std::vector<std::string> args = {
        "--journal", stem,
        "--out", out,
        "--dies", std::to_string(dies),
        "--envs", std::to_string(envs),
        "--jobs", std::to_string(jobs),
        "--cell-ms", std::to_string(cell_ms),
    };
    args.insert(args.end(), extra.begin(), extra.end());

    Phase phase;
    const auto t0 = std::chrono::steady_clock::now();
    phase.exit_code = run_campaignd(args);
    const auto t1 = std::chrono::steady_clock::now();
    phase.seconds = std::chrono::duration<double>(t1 - t0).count();
    phase.out_bytes = slurp(out);
    phase.wal_bytes = slurp(stem + ".wal");
    return phase;
}

void cleanup(const std::string& stem, std::size_t shards) {
    std::remove((stem + ".out").c_str());
    std::remove((stem + ".wal").c_str());
    for (std::size_t s = 0; s < shards; ++s) {
        std::remove(
            rfabm::exec::shard_journal_path(stem, static_cast<std::uint32_t>(s)).c_str());
        std::remove(
            rfabm::exec::rebalance_journal_path(stem, static_cast<std::uint32_t>(s)).c_str());
    }
}

}  // namespace

int main(int argc, char** argv) {
    using namespace rfabm;
    const bench::HarnessOptions base = bench::parse_options(argc, argv);
    const char* out_path = base.out_path.empty() ? "BENCH_shard.json" : base.out_path.c_str();
    bench::banner("shard_resilience: supervised multi-process campaign vs single process",
                  "sharding-layer benchmark (not a paper artifact)", base);

    const std::size_t shards = base.shard_count > 1 ? base.shard_count : 3;
    const std::size_t dies = base.fast ? 6 : 12;
    const std::size_t envs = 4;
    const std::size_t jobs = base.jobs > 0 ? base.jobs : 1;
    const int cell_ms = base.fast ? 5 : 20;
    std::printf("campaign: %zu dies x %zu corners, %zu shards, jobs/shard %zu, "
                "cell %d ms\n",
                dies, envs, shards, jobs, cell_ms);

    std::printf("[1/4] single process (--shards 1)...\n");
    const Phase single =
        run_phase("BENCH_shard_single", {"--shards", "1"}, dies, envs, jobs, cell_ms);
    std::printf("      %.2f s   rc %d\n", single.seconds, single.exit_code);

    std::printf("[2/4] sharded (--shards %zu, supervised workers)...\n", shards);
    const Phase sharded = run_phase("BENCH_shard_multi", {"--shards", std::to_string(shards)},
                                    dies, envs, jobs, cell_ms);
    std::printf("      %.2f s   rc %d\n", sharded.seconds, sharded.exit_code);

    std::printf("[3/4] crashed (worker 1 SIGKILLed after 2 records, restarted)...\n");
    const Phase crashed = run_phase(
        "BENCH_shard_crash",
        {"--shards", std::to_string(shards), "--chaos", "kill:1@2"}, dies, envs, jobs,
        cell_ms);
    std::printf("      %.2f s   rc %d\n", crashed.seconds, crashed.exit_code);

    std::printf("[4/4] rebalanced (shard 1 disk full after 2 records, dies re-homed)...\n");
    const Phase rebalanced = run_phase(
        "BENCH_shard_rebal",
        {"--shards", std::to_string(shards), "--chaos", "disk-full:1@2"}, dies, envs, jobs,
        cell_ms);
    std::printf("      %.2f s   rc %d\n", rebalanced.seconds, rebalanced.exit_code);

    const bool all_clean = single.exit_code == 0 && sharded.exit_code == 0 &&
                           crashed.exit_code == 0 && rebalanced.exit_code == 0 &&
                           !single.out_bytes.empty();
    const bool out_identical = single.out_bytes == sharded.out_bytes &&
                               single.out_bytes == crashed.out_bytes &&
                               single.out_bytes == rebalanced.out_bytes;
    const bool wal_identical = !single.wal_bytes.empty() &&
                               single.wal_bytes == sharded.wal_bytes &&
                               single.wal_bytes == crashed.wal_bytes &&
                               single.wal_bytes == rebalanced.wal_bytes;
    const double overhead = single.seconds > 0.0
                                ? (sharded.seconds - single.seconds) / single.seconds
                                : 0.0;
    const double crash_overhead = single.seconds > 0.0
                                      ? (crashed.seconds - single.seconds) / single.seconds
                                      : 0.0;
    const double rebalance_overhead =
        single.seconds > 0.0 ? (rebalanced.seconds - single.seconds) / single.seconds : 0.0;

    bench::TablePrinter table({"phase", "seconds", "rc", "out bytes", "wal bytes"});
    table.row({"single", bench::TablePrinter::num(single.seconds),
               std::to_string(single.exit_code), std::to_string(single.out_bytes.size()),
               std::to_string(single.wal_bytes.size())});
    table.row({"sharded", bench::TablePrinter::num(sharded.seconds),
               std::to_string(sharded.exit_code), std::to_string(sharded.out_bytes.size()),
               std::to_string(sharded.wal_bytes.size())});
    table.row({"crashed", bench::TablePrinter::num(crashed.seconds),
               std::to_string(crashed.exit_code), std::to_string(crashed.out_bytes.size()),
               std::to_string(crashed.wal_bytes.size())});
    table.row({"rebalanced", bench::TablePrinter::num(rebalanced.seconds),
               std::to_string(rebalanced.exit_code),
               std::to_string(rebalanced.out_bytes.size()),
               std::to_string(rebalanced.wal_bytes.size())});
    std::printf("supervision overhead: %+.1f%% (budget 5%%); with crash+resume: %+.1f%%; "
                "with degrade+rebalance: %+.1f%%\n",
                overhead * 100.0, crash_overhead * 100.0, rebalance_overhead * 100.0);
    std::printf("all phases exited clean: %s\n", all_clean ? "yes" : "NO");
    std::printf("output byte-identical across phases: %s\n", out_identical ? "yes" : "NO");
    std::printf("merged journal byte-identical across phases: %s\n",
                wal_identical ? "yes" : "NO");

    std::FILE* f = std::fopen(out_path, "w");
    if (f != nullptr) {
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"bench\": \"shard_resilience\",\n");
        std::fprintf(f, "  \"campaign\": {\"dies\": %zu, \"envs\": %zu, \"shards\": %zu, "
                        "\"jobs_per_shard\": %zu, \"cell_ms\": %d},\n",
                     dies, envs, shards, jobs, cell_ms);
        std::fprintf(f, "  \"single_seconds\": %.3f,\n", single.seconds);
        std::fprintf(f, "  \"sharded_seconds\": %.3f,\n", sharded.seconds);
        std::fprintf(f, "  \"crashed_seconds\": %.3f,\n", crashed.seconds);
        std::fprintf(f, "  \"rebalanced_seconds\": %.3f,\n", rebalanced.seconds);
        std::fprintf(f, "  \"overhead_pct\": %.2f,\n", overhead * 100.0);
        std::fprintf(f, "  \"crash_overhead_pct\": %.2f,\n", crash_overhead * 100.0);
        std::fprintf(f, "  \"rebalance_overhead_pct\": %.2f,\n", rebalance_overhead * 100.0);
        std::fprintf(f, "  \"within_budget\": %s,\n", overhead < 0.05 ? "true" : "false");
        std::fprintf(f, "  \"rebalance_within_budget\": %s,\n",
                     rebalance_overhead < 0.05 ? "true" : "false");
        std::fprintf(f, "  \"all_clean\": %s,\n", all_clean ? "true" : "false");
        std::fprintf(f, "  \"out_identical\": %s,\n", out_identical ? "true" : "false");
        std::fprintf(f, "  \"wal_identical\": %s\n", wal_identical ? "true" : "false");
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::printf("wrote %s\n", out_path);
    }
    cleanup("BENCH_shard_single", shards);
    cleanup("BENCH_shard_multi", shards);
    cleanup("BENCH_shard_crash", shards);
    cleanup("BENCH_shard_rebal", shards);
    return (all_clean && out_identical && wal_identical) ? 0 : 1;
}
