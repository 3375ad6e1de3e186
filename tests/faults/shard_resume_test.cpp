// Sharded kill-and-resume integration against the real coordinator binary:
// SIGKILL workers at injected crash points, hang workers, SIGKILL the
// coordinator itself at its own crash points — the merged campaign journal
// and the derived output must stay byte-identical to an uninterrupted
// single-process run, for every (shards, jobs) combination tested.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/shard.hpp"
#include "support/temp_path.hpp"

#ifndef CAMPAIGND_BIN
#error "CAMPAIGND_BIN must point at the rfabm_campaignd binary"
#endif
#ifndef LINT_FIXTURE_DIR
#error "LINT_FIXTURE_DIR must point at the lint fixture decks"
#endif

namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

bool file_exists(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return false;
    std::fclose(f);
    return true;
}

/// Run the coordinator; returns the raw std::system() status.
int run_campaignd(const std::string& args) {
    const std::string cmd =
        std::string(CAMPAIGND_BIN) + " " + args + " > /dev/null 2>&1";
    return std::system(cmd.c_str());
}

bool exited_with(int status, int code) {
    return WIFEXITED(status) && WEXITSTATUS(status) == code;
}
bool died_by_sigkill(int status) {
    if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) return true;
    return WIFEXITED(status) && WEXITSTATUS(status) == 128 + SIGKILL;
}

/// (shards, jobs-per-shard) matrix: the byte-identity contract must hold for
/// any topology.
struct Topo {
    int shards;
    int jobs;
};

class ShardResumeTest : public ::testing::TestWithParam<Topo> {
  protected:
    void SetUp() override {
        // One stem per test CASE (the name already encodes the topology
        // param), so ctest -j runs of sibling cases never share journals.
        stem_ = rfabm::test::temp_path("shardresume");
        ref_stem_ = stem_ + "_ref";
        clean(stem_);
        clean(ref_stem_);
    }
    void TearDown() override {
        clean(stem_);
        clean(ref_stem_);
    }

    void clean(const std::string& stem) {
        std::remove((stem + ".out").c_str());
        std::remove((stem + ".wal").c_str());
        std::remove((stem + ".wal.tmp").c_str());
        std::remove((stem + ".lintcache").c_str());
        std::remove((stem + ".triage.json").c_str());
        for (std::uint32_t s = 0; s < 8; ++s) {
            std::remove(rfabm::exec::shard_journal_path(stem, s).c_str());
            std::remove(rfabm::exec::rebalance_journal_path(stem, s).c_str());
        }
    }

    /// The common campaign geometry: 6 dies x 4 corners, fast synthetic
    /// cells.  @p stem owns the journal family and the output file.
    std::string grid_args(const std::string& stem, int shards, int jobs) const {
        return "--journal " + stem + " --out " + stem + ".out --dies 6 --envs 4" +
               " --cell-ms 2 --shards " + std::to_string(shards) + " --jobs " +
               std::to_string(jobs);
    }

    /// Uninterrupted --shards 1 reference for the same grid; returns the
    /// output bytes and leaves the reference journal at ref_stem_.wal.
    std::string reference(const std::string& extra = "") {
        const int rc = run_campaignd(grid_args(ref_stem_, 1, GetParam().jobs) + extra);
        EXPECT_TRUE(exited_with(rc, 0)) << "reference run failed, status=" << rc;
        const std::string out = slurp(ref_stem_ + ".out");
        EXPECT_FALSE(out.empty());
        return out;
    }

    void expect_identical(const std::string& ref_out, const char* label) {
        EXPECT_EQ(slurp(stem_ + ".out"), ref_out)
            << label << ": output must be byte-identical to the single-process run";
        EXPECT_EQ(slurp(stem_ + ".wal"), slurp(ref_stem_ + ".wal"))
            << label << ": merged campaign journal must be byte-identical";
    }

    std::string stem_, ref_stem_;
};

TEST_P(ShardResumeTest, CleanShardedRunMatchesSingleProcess) {
    const std::string ref = reference();
    const int rc = run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs));
    ASSERT_TRUE(exited_with(rc, 0)) << "status=" << rc;
    expect_identical(ref, "clean");
}

TEST_P(ShardResumeTest, SigkilledWorkerIsRestartedAndConverges) {
    const std::string ref = reference();
    // Worker for shard 1 SIGKILLs itself after journaling 2 records; the
    // supervisor must restart it with resume and the merge must still fold
    // to the reference bytes.
    const int rc = run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                                 " --chaos kill:1@2");
    ASSERT_TRUE(exited_with(rc, 0)) << "status=" << rc;
    expect_identical(ref, "worker-crash");
}

TEST_P(ShardResumeTest, HungWorkerIsKilledByWatchdogAndConverges) {
    const std::string ref = reference();
    // Shard 1's worker goes silent mid-campaign; the auto-tuned heartbeat
    // watchdog must SIGKILL and restart it.
    const int rc = run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                                 " --chaos hang:1");
    ASSERT_TRUE(exited_with(rc, 0)) << "status=" << rc;
    expect_identical(ref, "worker-hang");
}

TEST_P(ShardResumeTest, SigkilledCoordinatorResumesAtEveryCrashPoint) {
    const std::string ref = reference();
    for (const char* point : {"pre-dispatch", "post-workers", "post-merge"}) {
        clean(stem_);
        const int crashed =
            run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                          " --chaos coord:" + point);
        ASSERT_TRUE(died_by_sigkill(crashed))
            << "expected coordinator SIGKILL at " << point << ", status=" << crashed;

        const int resumed = run_campaignd(
            grid_args(stem_, GetParam().shards, GetParam().jobs) + " --resume");
        ASSERT_TRUE(exited_with(resumed, 0)) << point << ": status=" << resumed;
        expect_identical(ref, point);
    }
}

TEST_P(ShardResumeTest, CoordinatorCrashThenWorkerCrashStillConverges) {
    const std::string ref = reference();
    // Compound failure in one history: a worker SIGKILLs itself (and is
    // restarted with resume), then the coordinator dies after the workers
    // finish but before the merge.  The resumed coordinator finds complete
    // shard journals and must only merge.
    ASSERT_TRUE(died_by_sigkill(
        run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                      " --chaos kill:0@1,coord:post-workers")));
    const int rc = run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                                 " --resume");
    ASSERT_TRUE(exited_with(rc, 0)) << "status=" << rc;
    expect_identical(ref, "coord+worker");
}

TEST_P(ShardResumeTest, PoisonedCellQuarantinesIdenticallyAcrossTopologies) {
    // Die 2, env 1 always throws: both topologies must quarantine exactly
    // that cell (exit 1 = degraded) and agree on every byte of the rest.
    const int ref_rc = run_campaignd(grid_args(ref_stem_, 1, GetParam().jobs) +
                                     " --poison 2:1 --max-attempts 2");
    ASSERT_TRUE(exited_with(ref_rc, 1)) << "status=" << ref_rc;
    const std::string ref = slurp(ref_stem_ + ".out");
    ASSERT_FALSE(ref.empty());

    const int rc = run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                                 " --poison 2:1 --max-attempts 2");
    ASSERT_TRUE(exited_with(rc, 1)) << "status=" << rc;
    expect_identical(ref, "poison");
}

TEST_P(ShardResumeTest, LintAdmissionGatesDispatch) {
    const std::string fixtures = LINT_FIXTURE_DIR;
    // A clean deck passes admission and the campaign runs.
    const int ok = run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                                 " --netlist " + fixtures + "/clean.cir");
    EXPECT_TRUE(exited_with(ok, 0)) << "status=" << ok;

    // A rejected deck exits 3 before ANY shard work is dispatched: no shard
    // journals, no campaign journal, no output.
    clean(stem_);
    const int bad = run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                                  " --netlist " + fixtures + "/floating_node.cir");
    EXPECT_TRUE(exited_with(bad, 3)) << "status=" << bad;
    EXPECT_FALSE(file_exists(stem_ + ".wal"));
    EXPECT_FALSE(file_exists(stem_ + ".out"));
    for (std::uint32_t s = 0; s < 8; ++s) {
        EXPECT_FALSE(file_exists(rfabm::exec::shard_journal_path(stem_, s)))
            << "shard " << s << " was dispatched despite lint rejection";
    }
}

TEST_P(ShardResumeTest, FlowProgramAdmissionGatesDispatch) {
    const std::string programs = std::string(LINT_FIXTURE_DIR) + "/flow";
    // A clean scan program admits, the campaign runs, and the clean verdict
    // persists as an admission ticket the workers re-admitted against.
    const int ok = run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                                 " --program " + programs + "/clean.prog");
    EXPECT_TRUE(exited_with(ok, 0)) << "status=" << ok;
    EXPECT_TRUE(file_exists(stem_ + ".lintcache"))
        << "clean admission must leave a ticket file for the workers";

    // A temporally broken program (unpowered detector read) exits 3 before
    // ANY shard work is dispatched: no shard journals, no campaign journal,
    // no output, no admission ticket.
    clean(stem_);
    const int bad = run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                                  " --program " + programs + "/unpowered.prog");
    EXPECT_TRUE(exited_with(bad, 3)) << "status=" << bad;
    EXPECT_FALSE(file_exists(stem_ + ".wal"));
    EXPECT_FALSE(file_exists(stem_ + ".out"));
    for (std::uint32_t s = 0; s < 8; ++s) {
        EXPECT_FALSE(file_exists(rfabm::exec::shard_journal_path(stem_, s)))
            << "shard " << s << " was dispatched despite flow-lint rejection";
    }

    // Warning-only findings (measure-before-calibrate) do not gate dispatch.
    clean(stem_);
    const int warned =
        run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                      " --program " + programs + "/measure_before_calibrate.prog");
    EXPECT_TRUE(exited_with(warned, 0)) << "status=" << warned;
}

TEST_P(ShardResumeTest, TriageJsonRecordsPerShardAttemptHistory) {
    const std::string triage = stem_ + ".triage.json";
    // Shard 1's worker SIGKILLs itself once; the triage JSON must carry the
    // full supervision history — the crash, the backoff, and the resumed
    // relaunch that completed.
    const int rc = run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                                 " --chaos kill:1@2 --triage " + triage);
    ASSERT_TRUE(exited_with(rc, 0)) << "status=" << rc;
    const std::string json = slurp(triage);
    ASSERT_FALSE(json.empty());
    EXPECT_NE(json.find("\"shards\": ["), std::string::npos) << json;
    EXPECT_NE(json.find("\"attempts\": ["), std::string::npos) << json;
    EXPECT_NE(json.find("\"backoff_ms\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"ended\": \"crashed\""), std::string::npos)
        << "the injected SIGKILL must appear in the attempt history: " << json;
    EXPECT_NE(json.find("\"ended\": \"completed\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"resume\": true"), std::string::npos)
        << "the relaunch after the crash must be a resume: " << json;
    // Every cell still converged: the degraded history is telemetry, not
    // an outcome change.
    EXPECT_NE(json.find("\"crashes\":"), std::string::npos) << json;
}

TEST_P(ShardResumeTest, GivenUpShardIsRebalancedOntoSurvivors) {
    const std::string ref = reference();
    // Shard 1's worker SIGKILLs itself on EVERY launch; with a restart budget
    // of 1 the supervisor gives up on it.  The coordinator must re-partition
    // the shard's unfinished dies onto recovery workers (planned purely from
    // the durable journals) and the campaign must still complete, exit 0,
    // byte-identical.
    const int rc = run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                                 " --max-restarts 1 --chaos \"kill:1@1:x99\"");
    ASSERT_TRUE(exited_with(rc, 0)) << "status=" << rc;
    expect_identical(ref, "give-up-rebalance");
}

TEST_P(ShardResumeTest, EnospcDegradedShardRebalancesWithoutCrashing) {
    const std::string ref = reference();
    const std::string triage = stem_ + ".triage.json";
    // Shard 1's disk refuses every write after 2 journaled records.  ENOSPC
    // must never crash the worker: it degrades, exits with the structured
    // degraded code, and the coordinator rebalances whatever the durable
    // prefix is missing.
    const int rc = run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                                 " --chaos \"disk-full:1@2\" --triage " + triage);
    ASSERT_TRUE(exited_with(rc, 0)) << "status=" << rc;
    expect_identical(ref, "enospc-rebalance");
    const std::string json = slurp(triage);
    EXPECT_NE(json.find("\"journal_degraded\": true"), std::string::npos)
        << "degradation must surface as a structured triage flag: " << json;
    EXPECT_NE(json.find("\"rebalances\": [{"), std::string::npos)
        << "the rebalance must be recorded in the triage report: " << json;
    EXPECT_NE(json.find("\"reason\": \"journal-degraded\""), std::string::npos) << json;
}

TEST_P(ShardResumeTest, ShedShardIsRebalancedOntoSurvivors) {
    // Optional env 1 plus a crash-looping shard 1: the supervisor breaker
    // sheds the shard, and its cells must then be re-homed by the rebalance
    // pass — the final output still byte-identical to the single-process run
    // under the same --optional-env configuration.
    const std::string ref = reference(" --optional-env 1");
    const int rc = run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                                 " --optional-env 1 --breaker-min 2 --breaker-window 4" +
                                 " --chaos \"kill:1@1:x2\"");
    ASSERT_TRUE(exited_with(rc, 0)) << "status=" << rc;
    expect_identical(ref, "shed-rebalance");
}

TEST_P(ShardResumeTest, SigkilledRebalanceWorkerResumesAndConverges) {
    const std::string ref = reference();
    // Compound: shard 1 degrades on ENOSPC, then the FIRST recovery worker is
    // itself SIGKILLed after one journaled record.  The recovery supervisor
    // must restart it with resume on its own rebalance journal.
    const int rc = run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                                 " --chaos \"disk-full:1@2,rkill:0@1\"");
    ASSERT_TRUE(exited_with(rc, 0)) << "status=" << rc;
    expect_identical(ref, "rebalance-worker-kill");
}

TEST_P(ShardResumeTest, DiskFullDuringRebalanceRetriesNextRound) {
    const std::string ref = reference();
    // Worst case: the disk also fails under the recovery worker.  Round 1's
    // worker 0 degrades; the planner re-derives what is STILL missing from
    // the durable record and round 2 (fresh journal index) finishes the job.
    const int rc = run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                                 " --chaos \"disk-full:1@2,rdisk-full:0@1\"");
    ASSERT_TRUE(exited_with(rc, 0)) << "status=" << rc;
    expect_identical(ref, "rebalance-disk-full");
}

TEST_P(ShardResumeTest, MidPublishCoordinatorSigkillResumesCleanly) {
    const std::string ref = reference();
    // SIGKILL inside the merge publish window: the merged temp generation is
    // durable but not yet renamed over the output journal.  The resumed
    // coordinator must converge on identical bytes (the temp is rewritten,
    // never trusted).
    const int crashed = run_campaignd(grid_args(stem_, GetParam().shards, GetParam().jobs) +
                                      " --chaos coord:mid-publish");
    ASSERT_TRUE(died_by_sigkill(crashed)) << "status=" << crashed;
    EXPECT_TRUE(file_exists(stem_ + ".wal.tmp"))
        << "the crash must land inside the temp+rename window";
    const int resumed = run_campaignd(
        grid_args(stem_, GetParam().shards, GetParam().jobs) + " --resume");
    ASSERT_TRUE(exited_with(resumed, 0)) << "status=" << resumed;
    expect_identical(ref, "mid-publish");
}

TEST(CampaigndInline, DegradedJournalCountsOnceInMetrics) {
    // --shards 1 runs the campaign inside the coordinator.  Its one journal
    // writer degrades at record 2, and the coordinator's metrics line must
    // count that writer exactly once.
    const std::string stem = rfabm::test::temp_path("inline_degraded");
    const std::string log_path = stem + ".stderr";
    const std::string cmd = std::string(CAMPAIGND_BIN) + " --journal " + stem + " --out " +
                            stem + ".out --dies 6 --envs 4 --shards 1" +
                            " --chaos disk-full:0@2 > /dev/null 2> " + log_path;
    const int rc = std::system(cmd.c_str());
    EXPECT_TRUE(exited_with(rc, 1)) << "the in-memory cells are lost, status=" << rc;
    const std::string log = slurp(log_path);
    const char* key = "journal_degraded=";
    const std::size_t at = log.find(key);
    ASSERT_NE(at, std::string::npos) << log;
    EXPECT_EQ(std::strtoul(log.c_str() + at + std::strlen(key), nullptr, 10), 1u) << log;
    for (const char* suffix : {".out", ".wal", ".wal.tmp", ".stderr"}) {
        std::remove((stem + suffix).c_str());
    }
}

INSTANTIATE_TEST_SUITE_P(Topologies, ShardResumeTest,
                         ::testing::Values(Topo{2, 1}, Topo{3, 1}, Topo{3, 4}),
                         [](const ::testing::TestParamInfo<Topo>& info) {
                             return "shards" + std::to_string(info.param.shards) + "jobs" +
                                    std::to_string(info.param.jobs);
                         });

}  // namespace
