// Sharded campaigns: die partitioning, deterministic journal merge, and
// journal compaction (docs/sharding.md).
#include "exec/shard.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "exec/journal.hpp"
#include "support/temp_path.hpp"

namespace rfabm::exec {
namespace {

class ShardTest : public ::testing::Test {
  protected:
    void SetUp() override {
        stem_ = test::temp_path("shard");
        for (const std::string& p : all_paths()) std::remove(p.c_str());
    }
    void TearDown() override {
        for (const std::string& p : all_paths()) std::remove(p.c_str());
    }

    std::vector<std::string> all_paths() const {
        std::vector<std::string> paths = {stem_ + ".wal", stem_ + ".b.wal"};
        for (std::uint32_t i = 0; i < 4; ++i) {
            paths.push_back(shard_journal_path(stem_ + ".wal", i));
            paths.push_back(shard_journal_path(stem_ + ".b.wal", i));
            paths.push_back(rebalance_journal_path(stem_ + ".wal", i));
        }
        return paths;
    }

    static std::string slurp(const std::string& path) {
        std::string bytes;
        std::FILE* f = std::fopen(path.c_str(), "rb");
        if (f == nullptr) return bytes;
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
        std::fclose(f);
        return bytes;
    }

    static CellRecord cell(std::uint32_t die, std::uint32_t env, double v) {
        CellRecord r;
        r.key = {die, env, 0};
        r.outcome = 0;
        r.payload = {v};
        return r;
    }

    std::string stem_;
};

TEST_F(ShardTest, PartitionCoversEveryDieExactlyOnce) {
    for (std::uint32_t count = 1; count <= 5; ++count) {
        for (std::uint32_t die = 0; die < 20; ++die) {
            const std::uint32_t owner = shard_of_die(die, count);
            ASSERT_LT(owner, count);
            std::uint32_t members = 0;
            for (std::uint32_t s = 0; s < count; ++s) {
                if (in_shard({die, 0, 0}, {s, count})) ++members;
            }
            EXPECT_EQ(members, 1u) << "die " << die << " count " << count;
            EXPECT_TRUE(in_shard({die, 0, 0}, {owner, count}));
        }
    }
    // Degenerate count never divides by zero.
    EXPECT_EQ(shard_of_die(7, 0), 0u);
}

TEST_F(ShardTest, ShardJournalPathConvention) {
    EXPECT_EQ(shard_journal_path("camp.wal", 0), "camp.wal.shard0.wal");
    EXPECT_EQ(shard_journal_path("camp.wal", 12), "camp.wal.shard12.wal");
    EXPECT_EQ(shard_surrogate_path("camp.sur", 0), "camp.sur.shard0");
    EXPECT_EQ(shard_surrogate_path("camp.sur", 12), "camp.sur.shard12");
    EXPECT_TRUE(ShardSpec({0, 1}).valid());
    EXPECT_TRUE(ShardSpec({2, 3}).valid());
    EXPECT_FALSE(ShardSpec({3, 3}).valid());
    EXPECT_FALSE(ShardSpec({0, 0}).valid());
}

TEST_F(ShardTest, MergeBytesIndependentOfShardingAndInputOrder) {
    // The same 6-cell campaign journaled three ways: 3 shards, 2 shards, and
    // one journal with records in scrambled append order.  All merges must
    // produce byte-identical campaign journals.
    const std::uint64_t id = 42;
    auto write_shard = [&](const std::string& path, const std::vector<CellRecord>& records) {
        JournalWriter w;
        JournalWriter::Options opts;
        opts.campaign_id = id;
        ASSERT_TRUE(w.open_fresh(path, opts));
        for (const CellRecord& r : records) w.append_cell(r);
        w.close();
    };
    // die d, env e payload = d*10 + e.
    std::vector<CellRecord> all;
    for (std::uint32_t d = 0; d < 3; ++d) {
        for (std::uint32_t e = 0; e < 2; ++e) all.push_back(cell(d, e, d * 10.0 + e));
    }

    const std::string a0 = shard_journal_path(stem_ + ".wal", 0);
    const std::string a1 = shard_journal_path(stem_ + ".wal", 1);
    const std::string a2 = shard_journal_path(stem_ + ".wal", 2);
    write_shard(a0, {all[0], all[1]});               // die 0
    write_shard(a1, {all[2], all[3]});               // die 1
    write_shard(a2, {all[5], all[4]});               // die 2, scrambled
    const std::string b0 = shard_journal_path(stem_ + ".b.wal", 0);
    const std::string b1 = shard_journal_path(stem_ + ".b.wal", 1);
    write_shard(b0, {all[4], all[0], all[5], all[1]});  // dies 0,2
    write_shard(b1, {all[3], all[2]});                  // die 1

    const std::string out_a = stem_ + ".wal";
    const std::string out_b = stem_ + ".b.wal";
    MergeStats sa = merge_shard_journals({a0, a1, a2}, out_a, id);
    MergeStats sb = merge_shard_journals({b1, b0}, out_b, id);
    ASSERT_TRUE(sa.ok);
    ASSERT_TRUE(sb.ok);
    EXPECT_EQ(sa.journals_read, 3u);
    EXPECT_EQ(sb.journals_read, 2u);
    EXPECT_EQ(sa.cells, 6u);
    EXPECT_EQ(sb.cells, 6u);
    const std::string bytes_a = slurp(out_a);
    ASSERT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, slurp(out_b));

    // Re-merging the merged journal onto itself changes nothing (idempotent).
    ASSERT_TRUE(merge_shard_journals({out_a}, out_a, id).ok);
    EXPECT_EQ(bytes_a, slurp(out_a));
}

TEST_F(ShardTest, MergeFoldsSupersededRecordsAndCarriesOpenAttempts) {
    const std::uint64_t id = 7;
    JournalWriter::Options opts;
    opts.campaign_id = id;
    const std::string s0 = shard_journal_path(stem_ + ".wal", 0);
    {
        JournalWriter w;
        ASSERT_TRUE(w.open_fresh(s0, opts));
        w.append_attempt({0, 0, 0}, 1);
        w.append_cell(cell(0, 0, 1.0));  // completes: its tally is dead weight
        w.append_cell(cell(0, 0, 2.0));  // re-journaled after a crash: last wins
        w.append_attempt({0, 1, 0}, 2);  // still open: must be carried
        w.append_quarantine({0, 2, 0}, 3);
        w.close();
    }
    const std::string out = stem_ + ".wal";
    MergeStats stats = merge_shard_journals({s0}, out, id);
    ASSERT_TRUE(stats.ok);
    EXPECT_EQ(stats.cells, 1u);
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_EQ(stats.attempts_carried, 1u);
    EXPECT_GE(stats.superseded_dropped, 2u);  // dup cell + folded tally

    const JournalReplay replay = replay_journal(out, id);
    ASSERT_TRUE(replay.present);
    EXPECT_EQ(replay.superseded_records, 0u);  // merged output is canonical
    ASSERT_EQ(replay.cells.size(), 1u);
    EXPECT_EQ(replay.cells[0].payload, std::vector<double>{2.0});
    ASSERT_EQ(replay.attempts.size(), 1u);
    EXPECT_EQ(replay.attempts[0].first, (CellKey{0, 1, 0}));
    EXPECT_EQ(replay.attempts[0].second, 2u);
    ASSERT_EQ(replay.quarantined.size(), 1u);
    EXPECT_EQ(replay.quarantined[0].second, 3u);
}

TEST_F(ShardTest, MergeSkipsMissingAndForeignInputs) {
    const std::uint64_t id = 9;
    JournalWriter::Options opts;
    opts.campaign_id = id;
    const std::string s0 = shard_journal_path(stem_ + ".wal", 0);
    const std::string s1 = shard_journal_path(stem_ + ".wal", 1);  // never created
    const std::string s2 = shard_journal_path(stem_ + ".wal", 2);  // foreign id
    {
        JournalWriter w;
        ASSERT_TRUE(w.open_fresh(s0, opts));
        w.append_cell(cell(0, 0, 1.0));
        w.close();
    }
    {
        JournalWriter w;
        JournalWriter::Options foreign;
        foreign.campaign_id = id + 1;
        ASSERT_TRUE(w.open_fresh(s2, foreign));
        w.append_cell(cell(2, 0, 99.0));
        w.close();
    }
    MergeStats stats = merge_shard_journals({s0, s1, s2}, stem_ + ".wal", id);
    ASSERT_TRUE(stats.ok);
    EXPECT_EQ(stats.journals_read, 1u);
    EXPECT_EQ(stats.cells, 1u);
    const JournalReplay replay = replay_journal(stem_ + ".wal", id);
    ASSERT_EQ(replay.cells.size(), 1u);
    EXPECT_EQ(replay.cells[0].key, (CellKey{0, 0, 0}));
}

TEST_F(ShardTest, CompactionFoldsAttemptHistoryButPreservesContent) {
    const std::uint64_t id = 11;
    JournalWriter::Options opts;
    opts.campaign_id = id;
    const std::string path = stem_ + ".wal";
    {
        JournalWriter w;
        ASSERT_TRUE(w.open_fresh(path, opts));
        // A campaign that crash-looped: many attempt records per cell.
        for (std::uint32_t a = 1; a <= 5; ++a) w.append_attempt({0, 0, 0}, a);
        w.append_cell(cell(0, 0, 1.5));
        for (std::uint32_t a = 1; a <= 4; ++a) w.append_attempt({0, 1, 0}, a);
        w.close();
    }
    MergeStats stats;
    ASSERT_TRUE(compact_journal(path, id, &stats));
    EXPECT_GE(stats.superseded_dropped, 8u);  // 5 folded + 3 dup attempt tallies
    const JournalReplay replay = replay_journal(path, id);
    ASSERT_TRUE(replay.present);
    EXPECT_EQ(replay.superseded_records, 0u);
    ASSERT_EQ(replay.cells.size(), 1u);
    EXPECT_EQ(replay.cells[0].payload, std::vector<double>{1.5});
    ASSERT_EQ(replay.attempts.size(), 1u);
    EXPECT_EQ(replay.attempts[0].second, 4u);  // max attempt survives

    // Compacting a compacted journal is a byte-level no-op.
    const std::string first = slurp(path);
    ASSERT_TRUE(compact_journal(path, id));
    EXPECT_EQ(first, slurp(path));

    // Missing or foreign journals are refused, file untouched.
    EXPECT_FALSE(compact_journal(stem_ + ".b.wal", id));
    EXPECT_FALSE(compact_journal(path, id + 1));
    EXPECT_EQ(first, slurp(path));
}

TEST_F(ShardTest, CompactedJournalResumesByteIdentically) {
    // Satellite contract: resuming from a compacted journal must finish the
    // campaign with exactly the same final bytes as resuming from the
    // attempt-littered original.
    const std::uint64_t id = 13;
    JournalWriter::Options opts;
    opts.campaign_id = id;
    const std::string littered = stem_ + ".wal";
    const std::string compacted = stem_ + ".b.wal";
    auto write_history = [&](const std::string& path) {
        JournalWriter w;
        ASSERT_TRUE(w.open_fresh(path, opts));
        w.append_attempt({0, 0, 0}, 1);
        w.append_cell(cell(0, 0, 1.0));
        w.append_cell(cell(0, 0, 1.0));  // crash re-append
        w.append_attempt({1, 0, 0}, 1);  // cell {1,0,0} still open
        w.close();
    };
    write_history(littered);
    write_history(compacted);
    ASSERT_TRUE(compact_journal(compacted, id));
    ASSERT_NE(slurp(littered), slurp(compacted));  // histories really differ

    // "Resume" both: replay, re-run the one open cell, then canonicalize —
    // exactly what the resilient driver and the coordinator merge do.
    for (const std::string& path : {littered, compacted}) {
        const JournalReplay replay = replay_journal(path, id);
        ASSERT_TRUE(replay.present);
        ASSERT_EQ(replay.cells.size(), 1u);
        JournalWriter w;
        ASSERT_TRUE(w.open_resume(path, opts, replay.valid_bytes));
        w.append_cell(cell(1, 0, 2.0));
        w.close();
        ASSERT_TRUE(compact_journal(path, id));
    }
    const std::string final_bytes = slurp(littered);
    ASSERT_FALSE(final_bytes.empty());
    EXPECT_EQ(final_bytes, slurp(compacted));
}

TEST_F(ShardTest, RebalanceJournalPathConvention) {
    EXPECT_EQ(rebalance_journal_path("camp.wal", 0), "camp.wal.rebal0.wal");
    EXPECT_EQ(rebalance_journal_path("camp.wal", 7), "camp.wal.rebal7.wal");
}

TEST_F(ShardTest, MissingCellsDerivesFromDurableJournalsOnly) {
    // 3x2 grid; shard 0 completed die 0 fully and die 2 partially, a
    // quarantine benched one cell, and nothing else is on disk.  The planner
    // must report exactly the rest — completed and quarantined both count as
    // done (a quarantined cell must NOT be recomputed by a recovery worker).
    const std::uint64_t id = 99;
    JournalWriter::Options opts;
    opts.campaign_id = id;
    const std::string path = shard_journal_path(stem_ + ".wal", 0);
    JournalWriter w;
    ASSERT_TRUE(w.open_fresh(path, opts));
    w.append_cell(cell(0, 0, 1.0));
    w.append_cell(cell(0, 1, 2.0));
    w.append_cell(cell(2, 0, 3.0));
    w.append_quarantine({1, 1, 0}, 2);
    w.close();

    const std::vector<CellKey> missing = missing_cells({path, stem_ + ".b.wal"}, id, 3, 2);
    ASSERT_EQ(missing.size(), 2u);  // {1,0} and {2,1}; missing .b.wal is skipped
    EXPECT_EQ(missing[0], (CellKey{1, 0, 0}));
    EXPECT_EQ(missing[1], (CellKey{2, 1, 0}));

    // A journal under a different campaign id contributes nothing.
    const std::vector<CellKey> foreign = missing_cells({path}, id + 1, 3, 2);
    EXPECT_EQ(foreign.size(), 6u);
}

TEST_F(ShardTest, RebalancePlanIsDeterministicAndDieMajor) {
    std::vector<CellKey> missing;
    for (const std::uint32_t die : {7u, 3u, 5u, 3u, 7u}) {
        missing.push_back({die, static_cast<std::uint32_t>(missing.size()), 0});
    }
    // 2 workers over distinct dies {3, 5, 7}: round-robin in sorted order.
    const auto plan = plan_rebalance(missing, 2);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].worker, 0u);
    EXPECT_EQ(plan[0].dies, (std::vector<std::uint32_t>{3, 7}));
    EXPECT_EQ(plan[0].cells, 4u);
    EXPECT_EQ(plan[1].dies, (std::vector<std::uint32_t>{5}));
    EXPECT_EQ(plan[1].cells, 1u);
    // Same inputs, same plan — a resumed coordinator re-derives identically.
    const auto replan = plan_rebalance(missing, 2);
    ASSERT_EQ(replan.size(), plan.size());
    EXPECT_EQ(replan[0].dies, plan[0].dies);
    EXPECT_EQ(replan[1].dies, plan[1].dies);

    // Worker count clamps to [1, distinct dies]; empty missing → empty plan.
    EXPECT_EQ(plan_rebalance(missing, 16).size(), 3u);
    EXPECT_EQ(plan_rebalance(missing, 0).size(), 1u);
    EXPECT_TRUE(plan_rebalance({}, 4).empty());
}

TEST_F(ShardTest, PublishHookFiresInsideTempRenameWindow) {
    // The merge publish window: when the hook runs, the merged TEMP
    // generation must already be durable while the OUTPUT path still holds
    // the previous generation — the exact window mid-publish crash tests
    // SIGKILL inside.
    const std::uint64_t id = 5;
    JournalWriter::Options opts;
    opts.campaign_id = id;
    const std::string in = shard_journal_path(stem_ + ".wal", 0);
    const std::string out = stem_ + ".wal";
    {
        JournalWriter w;
        ASSERT_TRUE(w.open_fresh(in, opts));
        w.append_cell(cell(0, 0, 1.0));
        w.close();
    }
    {  // Seed a previous generation at the output path.
        JournalWriter w;
        ASSERT_TRUE(w.open_fresh(out, opts));
        w.append_cell(cell(9, 9, 9.0));
        w.close();
    }
    const std::string previous = slurp(out);

    std::string tmp_seen;
    std::string out_during_hook;
    bool tmp_had_merged_generation = false;
    set_merge_publish_hook([&](const std::string& tmp_path) {
        tmp_seen = tmp_path;
        out_during_hook = slurp(out);
        const JournalReplay tmp_replay = replay_journal(tmp_path, id);
        tmp_had_merged_generation = tmp_replay.present && tmp_replay.cells.size() == 1 &&
                                    tmp_replay.cells[0].key == CellKey{0, 0, 0};
    });
    const MergeStats merged = merge_shard_journals({in}, out, id);
    set_merge_publish_hook(nullptr);

    ASSERT_TRUE(merged.ok);
    EXPECT_EQ(tmp_seen, out + ".tmp");
    EXPECT_EQ(out_during_hook, previous)
        << "previous generation must still be live inside the publish window";
    EXPECT_TRUE(tmp_had_merged_generation)
        << "temp generation must be durable before the rename";
    const JournalReplay published = replay_journal(out, id);
    ASSERT_EQ(published.cells.size(), 1u);
    EXPECT_EQ(published.cells[0].key, (CellKey{0, 0, 0}));
}

}  // namespace
}  // namespace rfabm::exec
