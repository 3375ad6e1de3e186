// Resilient campaign driver: journaled resume, retries, quarantine, shedding,
// watchdog-reclaimed stalls — and byte-identity through all of it.
#include "exec/resilient.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/temp_path.hpp"

namespace rfabm::exec {
namespace {

using namespace std::chrono_literals;

/// Deterministic, bit-exact synthetic measurement for cell (die, env).
std::vector<double> synth_payload(std::uint32_t die, std::uint32_t env) {
    const double base = std::sin(0.1 * die + 1.0) * std::cos(0.2 * env + 2.0);
    return {base, base * base, 1.0 / (1.0 + die + env)};
}

struct Fixture : ::testing::Test {
    void SetUp() override {
        path = test::temp_path("resilient.wal");
        std::remove(path.c_str());
    }
    void TearDown() override { std::remove(path.c_str()); }

    /// Build dies x envs chains delivering into `slots`; `computes` counts
    /// actual compute invocations (replays bypass it).
    std::vector<ResilientChain> make_chains(std::uint32_t dies, std::uint32_t envs) {
        slots.assign(dies * envs, {});
        std::vector<ResilientChain> chains(dies);
        for (std::uint32_t d = 0; d < dies; ++d) {
            for (std::uint32_t e = 0; e < envs; ++e) {
                ResilientCell cell;
                cell.key = {d, e, 0};
                cell.compute = [this, d, e](const CellAttempt&) {
                    computes.fetch_add(1);
                    CellComputeResult out;
                    out.payload = synth_payload(d, e);
                    return out;
                };
                const std::size_t slot = d * envs + e;
                cell.deliver = [this, slot](const std::vector<double>& payload, CellOutcome,
                                            bool) { slots[slot] = payload; };
                chains[d].cells.push_back(std::move(cell));
            }
        }
        return chains;
    }

    ResilienceOptions journaled() {
        ResilienceOptions ropts;
        ropts.journal_path = path;
        ropts.campaign_id = 42;
        return ropts;
    }

    std::string path;
    std::vector<std::vector<double>> slots;
    std::atomic<int> computes{0};
    CellOutcome delivered_outcome = CellOutcome::kOk;
};

using ResilientCampaignTest = Fixture;

TEST_F(ResilientCampaignTest, FreshRunDeliversEveryCell) {
    CampaignOptions copts;
    copts.jobs = 1;
    const ResilientResult result =
        run_resilient_campaign(make_chains(3, 2), copts, journaled());
    EXPECT_EQ(result.triage.count(CellOutcome::kOk), 6u);
    EXPECT_TRUE(result.triage.clean());
    EXPECT_EQ(computes.load(), 6);
    for (std::uint32_t d = 0; d < 3; ++d) {
        for (std::uint32_t e = 0; e < 2; ++e) {
            EXPECT_EQ(slots[d * 2 + e], synth_payload(d, e));
        }
    }
}

TEST_F(ResilientCampaignTest, ResumeReplaysWithoutRecompute) {
    CampaignOptions copts;
    copts.jobs = 1;
    run_resilient_campaign(make_chains(3, 2), copts, journaled());
    ASSERT_EQ(computes.load(), 6);
    const auto first = slots;

    auto chains = make_chains(3, 2);  // resets slots
    ResilienceOptions ropts = journaled();
    ropts.resume = true;
    const ResilientResult resumed = run_resilient_campaign(chains, copts, ropts);
    EXPECT_EQ(computes.load(), 6) << "resume must not recompute completed cells";
    EXPECT_EQ(resumed.triage.count(CellOutcome::kReplayed), 6u);
    EXPECT_EQ(resumed.triage.journal.records_replayed, 6u);
    EXPECT_EQ(slots, first) << "replayed payloads must be bit-identical";
}

TEST_F(ResilientCampaignTest, PartialJournalRunsOnlyTheMissingCells) {
    CampaignOptions copts;
    copts.jobs = 1;
    {
        // Seed a journal holding only die 0's cells.
        auto chains = make_chains(1, 2);
        run_resilient_campaign(chains, copts, journaled());
    }
    ASSERT_EQ(computes.load(), 2);
    auto chains = make_chains(3, 2);
    ResilienceOptions ropts = journaled();
    ropts.resume = true;
    const ResilientResult result = run_resilient_campaign(chains, copts, ropts);
    EXPECT_EQ(computes.load(), 2 + 4) << "only the 4 missing cells re-run";
    EXPECT_EQ(result.triage.count(CellOutcome::kReplayed), 2u);
    EXPECT_EQ(result.triage.count(CellOutcome::kOk), 4u);
    for (std::uint32_t d = 0; d < 3; ++d) {
        for (std::uint32_t e = 0; e < 2; ++e) {
            EXPECT_EQ(slots[d * 2 + e], synth_payload(d, e));
        }
    }
}

TEST_F(ResilientCampaignTest, ForeignCampaignIdStartsFresh) {
    CampaignOptions copts;
    copts.jobs = 1;
    run_resilient_campaign(make_chains(2, 1), copts, journaled());
    auto chains = make_chains(2, 1);
    ResilienceOptions ropts = journaled();
    ropts.campaign_id = 43;  // different config: the journal must be refused
    ropts.resume = true;
    const ResilientResult result = run_resilient_campaign(chains, copts, ropts);
    EXPECT_EQ(result.triage.count(CellOutcome::kReplayed), 0u);
    EXPECT_EQ(result.triage.count(CellOutcome::kOk), 2u);
    EXPECT_TRUE(result.triage.journal.id_mismatch);
}

TEST_F(ResilientCampaignTest, ByteIdenticalAcrossJobsAndResumeSplits) {
    // Ground truth: serial, no journal.
    CampaignOptions serial;
    serial.jobs = 1;
    ResilienceOptions bare;
    run_resilient_campaign(make_chains(4, 3), serial, bare);
    const auto truth = slots;

    for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
        std::remove(path.c_str());
        // Split: first a run covering a prefix (2 dies), then resume the
        // full grid — a controlled stand-in for an arbitrary crash point.
        CampaignOptions copts;
        copts.jobs = jobs;
        {
            auto prefix = make_chains(2, 3);
            run_resilient_campaign(prefix, copts, journaled());
        }
        auto chains = make_chains(4, 3);
        ResilienceOptions ropts = journaled();
        ropts.resume = true;
        run_resilient_campaign(chains, copts, ropts);
        EXPECT_EQ(slots, truth) << "jobs=" << jobs;
    }
}

TEST_F(ResilientCampaignTest, FlakyCellSucceedsOnRetry) {
    std::vector<ResilientChain> chains(1);
    ResilientCell cell;
    cell.key = {0, 0, 0};
    cell.compute = [this](const CellAttempt& attempt) {
        computes.fetch_add(1);
        if (attempt.attempt == 0) throw std::runtime_error("transient glitch");
        CellComputeResult out;
        out.payload = {7.0};
        return out;
    };
    cell.deliver = [this](const std::vector<double>& payload, CellOutcome outcome, bool) {
        slots.assign(1, payload);
        delivered_outcome = outcome;
    };
    chains[0].cells.push_back(std::move(cell));

    CampaignOptions copts;
    copts.jobs = 1;
    ResilienceOptions ropts = journaled();
    ropts.max_cell_attempts = 2;
    const ResilientResult result = run_resilient_campaign(chains, copts, ropts);
    EXPECT_EQ(computes.load(), 2);
    EXPECT_EQ(result.triage.count(CellOutcome::kOk), 1u);
    EXPECT_EQ(result.triage.quarantined_cells.size(), 0u);
    ASSERT_EQ(slots.size(), 1u);
    EXPECT_EQ(slots[0], std::vector<double>{7.0});
}

TEST_F(ResilientCampaignTest, ExhaustedCellIsQuarantinedAndStaysBenchedOnResume) {
    auto build = [this] {
        std::vector<ResilientChain> chains(1);
        ResilientCell bad;
        bad.key = {0, 0, 0};
        bad.compute = [this](const CellAttempt&) -> CellComputeResult {
            computes.fetch_add(1);
            throw std::runtime_error("permanently broken");
        };
        bad.deliver = [](const std::vector<double>&, CellOutcome, bool) {
            FAIL() << "a quarantined cell must never deliver";
        };
        chains[0].cells.push_back(std::move(bad));
        ResilientCell good;
        good.key = {0, 1, 0};
        good.compute = [this](const CellAttempt&) {
            computes.fetch_add(1);
            CellComputeResult out;
            out.payload = {1.0};
            return out;
        };
        good.deliver = [](const std::vector<double>&, CellOutcome, bool) {};
        chains[0].cells.push_back(std::move(good));
        return chains;
    };

    CampaignOptions copts;
    copts.jobs = 1;
    ResilienceOptions ropts = journaled();
    ropts.max_cell_attempts = 3;
    const ResilientResult first = run_resilient_campaign(build(), copts, ropts);
    EXPECT_EQ(computes.load(), 3 + 1);
    EXPECT_EQ(first.triage.count(CellOutcome::kFailed), 1u);
    ASSERT_EQ(first.triage.quarantined_cells.size(), 1u);
    EXPECT_EQ(first.triage.quarantined_cells[0].first, (CellKey{0, 0, 0}));
    EXPECT_FALSE(first.triage.clean());

    // Resume: the quarantine record benches the cell without new attempts.
    ropts.resume = true;
    const ResilientResult second = run_resilient_campaign(build(), copts, ropts);
    EXPECT_EQ(computes.load(), 4) << "no further attempts on a quarantined cell";
    EXPECT_EQ(second.triage.count(CellOutcome::kQuarantined), 1u);
    EXPECT_EQ(second.triage.count(CellOutcome::kReplayed), 1u);
}

TEST_F(ResilientCampaignTest, TrippedBreakerShedsOptionalCellsOnly) {
    std::vector<ResilientChain> chains(1);
    std::atomic<int> optional_ran{0}, mandatory_ran{0};
    // A burst of failing mandatory cells first (single-job: deterministic
    // order), then optional ones that must be shed, then a mandatory one
    // that must still run.
    for (std::uint32_t i = 0; i < 6; ++i) {
        ResilientCell bad;
        bad.key = {0, i, 0};
        bad.compute = [](const CellAttempt&) -> CellComputeResult {
            throw std::runtime_error("hard failure");
        };
        bad.deliver = [](const std::vector<double>&, CellOutcome, bool) {};
        chains[0].cells.push_back(std::move(bad));
    }
    for (std::uint32_t i = 6; i < 9; ++i) {
        ResilientCell opt;
        opt.key = {0, i, 0};
        opt.optional = true;
        opt.compute = [&optional_ran](const CellAttempt&) {
            optional_ran.fetch_add(1);
            return CellComputeResult{{1.0}, CellOutcome::kOk};
        };
        opt.deliver = [](const std::vector<double>&, CellOutcome, bool) {};
        chains[0].cells.push_back(std::move(opt));
    }
    ResilientCell mand;
    mand.key = {0, 9, 0};
    mand.compute = [&mandatory_ran](const CellAttempt&) {
        mandatory_ran.fetch_add(1);
        return CellComputeResult{{2.0}, CellOutcome::kOk};
    };
    mand.deliver = [](const std::vector<double>&, CellOutcome, bool) {};
    chains[0].cells.push_back(std::move(mand));

    CampaignOptions copts;
    copts.jobs = 1;
    ResilienceOptions ropts;  // no journal: breaker works standalone
    ropts.max_cell_attempts = 1;
    ropts.breaker.window = 8;
    ropts.breaker.min_samples = 4;
    ropts.breaker.threshold = 0.5;
    const ResilientResult result = run_resilient_campaign(chains, copts, ropts);
    EXPECT_EQ(optional_ran.load(), 0) << "optional cells must be shed while tripped";
    EXPECT_EQ(mandatory_ran.load(), 1) << "mandatory cells always run";
    EXPECT_EQ(result.triage.count(CellOutcome::kShed), 3u);
    EXPECT_TRUE(result.triage.breaker_tripped);
}

TEST_F(ResilientCampaignTest, AttemptBudgetPersistsAcrossProcessRestarts) {
    // A previous incarnation burned 2 of 3 attempts on this cell (journaled
    // as attempt tallies), then crashed.  The resumed campaign must grant
    // only the one remaining attempt before quarantining.
    {
        JournalWriter w;
        JournalWriter::Options jopts;
        jopts.campaign_id = 42;
        ASSERT_TRUE(w.open_fresh(path, jopts));
        w.append_attempt({0, 0, 0}, 2);
        w.close();
    }
    std::vector<ResilientChain> chains(1);
    ResilientCell bad;
    bad.key = {0, 0, 0};
    bad.compute = [this](const CellAttempt& attempt) -> CellComputeResult {
        computes.fetch_add(1);
        EXPECT_EQ(attempt.attempt, 2) << "attempt index continues across restarts";
        throw std::runtime_error("still broken");
    };
    bad.deliver = [](const std::vector<double>&, CellOutcome, bool) {};
    chains[0].cells.push_back(std::move(bad));

    CampaignOptions copts;
    copts.jobs = 1;
    ResilienceOptions ropts = journaled();
    ropts.resume = true;
    ropts.max_cell_attempts = 3;
    const ResilientResult result = run_resilient_campaign(chains, copts, ropts);
    EXPECT_EQ(computes.load(), 1) << "2 of 3 attempts already burned before the restart";
    ASSERT_EQ(result.triage.quarantined_cells.size(), 1u);
    EXPECT_EQ(result.triage.quarantined_cells[0].first, (CellKey{0, 0, 0}));
    EXPECT_EQ(result.triage.quarantined_cells[0].second, 3u) << "total across restarts";
}

TEST_F(ResilientCampaignTest, ExhaustedBudgetQuarantinesWithoutRunning) {
    // The crashed incarnations already spent the whole budget: the resumed
    // campaign must bench the cell outright — a crash-looping cell cannot
    // take the worker down a third time.
    {
        JournalWriter w;
        JournalWriter::Options jopts;
        jopts.campaign_id = 42;
        ASSERT_TRUE(w.open_fresh(path, jopts));
        w.append_attempt({0, 0, 0}, 2);
        w.close();
    }
    std::vector<ResilientChain> chains(1);
    ResilientCell cell;
    cell.key = {0, 0, 0};
    cell.compute = [this](const CellAttempt&) {
        computes.fetch_add(1);  // would succeed — but must never get the chance
        return CellComputeResult{{1.0}, CellOutcome::kOk};
    };
    cell.deliver = [](const std::vector<double>&, CellOutcome, bool) {};
    chains[0].cells.push_back(std::move(cell));

    CampaignOptions copts;
    copts.jobs = 1;
    ResilienceOptions ropts = journaled();
    ropts.resume = true;
    ropts.max_cell_attempts = 2;
    const ResilientResult result = run_resilient_campaign(chains, copts, ropts);
    EXPECT_EQ(computes.load(), 0);
    EXPECT_EQ(result.triage.count(CellOutcome::kQuarantined), 1u);
}

TEST_F(ResilientCampaignTest, ResumeCompactsAttemptLitteredJournal) {
    // First run: a flaky cell leaves an attempt tally behind its eventual
    // completion record.  The resumed run must compact that litter away so
    // replay cost stays O(cells), and still replay everything.
    {
        std::vector<ResilientChain> chains(1);
        ResilientCell flaky;
        flaky.key = {0, 0, 0};
        flaky.compute = [this](const CellAttempt& attempt) {
            computes.fetch_add(1);
            if (attempt.attempt == 0) throw std::runtime_error("transient");
            return CellComputeResult{{5.0}, CellOutcome::kOk};
        };
        flaky.deliver = [](const std::vector<double>&, CellOutcome, bool) {};
        chains[0].cells.push_back(std::move(flaky));
        CampaignOptions copts;
        copts.jobs = 1;
        ResilienceOptions ropts = journaled();
        ropts.max_cell_attempts = 2;
        run_resilient_campaign(chains, copts, ropts);
    }
    ASSERT_GE(replay_journal(path, 42).superseded_records, 1u) << "litter expected";

    auto chains = make_chains(1, 1);
    CampaignOptions copts;
    copts.jobs = 1;
    ResilienceOptions ropts = journaled();
    ropts.resume = true;
    const ResilientResult resumed = run_resilient_campaign(chains, copts, ropts);
    EXPECT_EQ(resumed.triage.count(CellOutcome::kReplayed), 1u);
    const JournalReplay after = replay_journal(path, 42);
    EXPECT_EQ(after.superseded_records, 0u) << "resume must compact the journal";
    ASSERT_EQ(after.cells.size(), 1u);
    EXPECT_EQ(after.cells[0].payload, std::vector<double>{5.0});
}

TEST_F(ResilientCampaignTest, DeferredOptionalCellsRunWhenBreakerRecovers) {
    // Breaker-aware scheduling: optional cells hitting a tripped breaker are
    // *deferred*, not immediately shed — if the breaker recovers while
    // mandatory work drains, the parked cells still run.
    std::vector<ResilientChain> chains(1);
    std::atomic<int> optional_ran{0};
    for (std::uint32_t i = 0; i < 4; ++i) {  // trip the breaker
        ResilientCell bad;
        bad.key = {0, i, 0};
        bad.compute = [](const CellAttempt&) -> CellComputeResult {
            throw std::runtime_error("hard failure");
        };
        bad.deliver = [](const std::vector<double>&, CellOutcome, bool) {};
        chains[0].cells.push_back(std::move(bad));
    }
    for (std::uint32_t i = 4; i < 6; ++i) {  // optional: deferred while tripped
        ResilientCell opt;
        opt.key = {0, i, 0};
        opt.optional = true;
        opt.compute = [&optional_ran](const CellAttempt&) {
            optional_ran.fetch_add(1);
            return CellComputeResult{{1.0}, CellOutcome::kOk};
        };
        opt.deliver = [](const std::vector<double>&, CellOutcome, bool) {};
        chains[0].cells.push_back(std::move(opt));
    }
    for (std::uint32_t i = 6; i < 12; ++i) {  // recovery: failure rate drops
        ResilientCell good;
        good.key = {0, i, 0};
        good.compute = [](const CellAttempt&) { return CellComputeResult{{2.0}, CellOutcome::kOk}; };
        good.deliver = [](const std::vector<double>&, CellOutcome, bool) {};
        chains[0].cells.push_back(std::move(good));
    }

    CampaignOptions copts;
    copts.jobs = 1;
    ResilienceOptions ropts;
    ropts.max_cell_attempts = 1;
    ropts.breaker.window = 8;
    ropts.breaker.min_samples = 4;
    ropts.breaker.threshold = 0.5;
    const ResilientResult result = run_resilient_campaign(chains, copts, ropts);
    EXPECT_TRUE(result.triage.breaker_tripped) << "the breaker really tripped mid-run";
    EXPECT_EQ(optional_ran.load(), 2) << "deferred cells run once the breaker recovers";
    EXPECT_EQ(result.triage.count(CellOutcome::kShed), 0u);
    EXPECT_EQ(result.triage.count(CellOutcome::kOk), 8u);
}

TEST_F(ResilientCampaignTest, WatchdogReclaimsStalledCell) {
    std::vector<ResilientChain> chains(1);
    ResilientCell stuck;
    stuck.key = {0, 0, 0};
    stuck.compute = [](const CellAttempt& attempt) -> CellComputeResult {
        // A wedged solver: no heartbeat, no progress — just like a Newton
        // limit cycle.  Exit only when the watchdog expires the deadline.
        while (!attempt.token.deadline_expired()) {
            std::this_thread::sleep_for(1ms);
        }
        throw std::runtime_error("aborted by deadline");
    };
    stuck.deliver = [](const std::vector<double>&, CellOutcome, bool) {
        FAIL() << "a timed-out cell must not deliver";
    };
    chains[0].cells.push_back(std::move(stuck));

    CampaignOptions copts;
    copts.jobs = 1;
    ResilienceOptions ropts;
    ropts.cell_timeout = 50ms;
    ropts.max_cell_attempts = 2;
    ropts.watchdog.poll_interval = 5ms;
    const ResilientResult result = run_resilient_campaign(chains, copts, ropts);
    EXPECT_EQ(result.triage.count(CellOutcome::kTimedOut), 1u);
    EXPECT_GE(result.triage.watchdog_fires, 1u);
    EXPECT_EQ(result.triage.quarantined_cells.size(), 1u);
}

TEST_F(ResilientCampaignTest, CalibrateFailureIsNotFatal) {
    auto chains = make_chains(1, 2);
    chains[0].calibrate = [](TaskContext&) { throw std::runtime_error("cal blew up"); };
    CampaignOptions copts;
    copts.jobs = 1;
    const ResilientResult result = run_resilient_campaign(chains, copts, {});
    // The cells still ran (and here, still succeeded) despite calibration
    // failing — graceful degradation, not abort.
    EXPECT_EQ(result.triage.count(CellOutcome::kOk), 2u);
}

TEST_F(ResilientCampaignTest, JournalDegradationFinishesCampaignInMemory) {
    // A single-process campaign whose disk fills mid-run must NOT crash or
    // stop: the journal degrades to in-memory operation and every cell still
    // computes and delivers.  Only durability is lost — and the triage says
    // so, loudly.
    CampaignOptions copts;
    copts.jobs = 1;
    ResilienceOptions ropts = journaled();
    ropts.on_journal_open = [](JournalWriter& writer) {
        writer.set_disk_fault_hook([](DiskOp op, std::uint64_t record) {
            return op == DiskOp::kWrite && record >= 3 ? ENOSPC : 0;
        });
    };
    const ResilientResult result =
        run_resilient_campaign(make_chains(3, 2), copts, ropts);
    EXPECT_EQ(computes.load(), 6) << "degradation must not stop the campaign";
    EXPECT_EQ(result.triage.count(CellOutcome::kOk), 6u);
    for (std::uint32_t d = 0; d < 3; ++d) {
        for (std::uint32_t e = 0; e < 2; ++e) {
            EXPECT_EQ(slots[d * 2 + e], synth_payload(d, e));
        }
    }
    EXPECT_TRUE(result.triage.journal.degraded);
    EXPECT_EQ(result.triage.journal.write_failures, 1u);
    EXPECT_EQ(result.triage.journal.records_dropped, 3u);
    // The durable prefix survived the degradation intact.
    EXPECT_EQ(replay_journal(path, 42).cells.size(), 2u);
}

TEST_F(ResilientCampaignTest, AbortOnJournalDegradedCancelsRemainingCompute) {
    // Sharded workers flip this on: their results only reach the coordinator
    // through the journal, so once the writer degrades, the remaining compute
    // is wasted — cancel it and let the coordinator rebalance.
    CampaignOptions copts;
    copts.jobs = 1;
    ResilienceOptions ropts = journaled();
    ropts.abort_on_journal_degraded = true;
    ropts.on_journal_open = [](JournalWriter& writer) {
        writer.set_disk_fault_hook(
            [](DiskOp op, std::uint64_t) { return op == DiskOp::kWrite ? EIO : 0; });
    };
    const ResilientResult result =
        run_resilient_campaign(make_chains(4, 1), copts, ropts);
    EXPECT_EQ(computes.load(), 1)
        << "the very first failed append must cancel the remaining cells";
    EXPECT_TRUE(result.triage.journal.degraded);
    // Cancelled cells are not the cells' fault: no quarantine records.
    EXPECT_TRUE(result.triage.quarantined_cells.empty());
}

TEST_F(ResilientCampaignTest, DeliveredOutcomeMarksDegradedResults) {
    std::vector<ResilientChain> chains(1);
    ResilientCell cell;
    cell.key = {0, 0, 0};
    cell.compute = [](const CellAttempt&) {
        return CellComputeResult{{3.0}, CellOutcome::kDegraded};
    };
    cell.deliver = [this](const std::vector<double>&, CellOutcome outcome, bool) {
        delivered_outcome = outcome;
    };
    chains[0].cells.push_back(std::move(cell));
    CampaignOptions copts;
    copts.jobs = 1;
    const ResilientResult result = run_resilient_campaign(chains, copts, {});
    EXPECT_EQ(result.triage.count(CellOutcome::kDegraded), 1u);
    EXPECT_EQ(delivered_outcome, CellOutcome::kDegraded);
}

}  // namespace
}  // namespace rfabm::exec
