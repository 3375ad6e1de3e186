// Write-ahead journal: roundtrip, torn tails, corrupt records, identity.
#include "exec/journal.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "support/temp_path.hpp"

namespace rfabm::exec {
namespace {

class JournalTest : public ::testing::Test {
  protected:
    void SetUp() override {
        path_ = test::temp_path("journal.wal");
        std::remove(path_.c_str());
    }
    void TearDown() override { std::remove(path_.c_str()); }

    /// Append raw bytes to the journal file, bypassing the writer.
    void append_raw(const std::vector<unsigned char>& bytes) {
        std::FILE* f = std::fopen(path_.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
    }

    /// Flip one byte at @p offset from the END of the file.
    void corrupt_byte_from_end(long offset) {
        std::FILE* f = std::fopen(path_.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, -offset, SEEK_END), 0);
        int c = std::fgetc(f);
        ASSERT_NE(c, EOF);
        ASSERT_EQ(std::fseek(f, -offset, SEEK_END), 0);
        std::fputc(c ^ 0x5a, f);
        std::fclose(f);
    }

    std::string path_;
};

const CellRecord* find_cell(const JournalReplay& replay, const CellKey& key) {
    const CellRecord* found = nullptr;
    for (const CellRecord& r : replay.cells) {
        if (r.key == key) found = &r;  // append order: the newest record wins
    }
    return found;
}

CellRecord make_record(std::uint32_t die, std::uint32_t env, std::uint32_t meas,
                       std::vector<double> payload) {
    CellRecord r;
    r.key = {die, env, meas};
    r.outcome = 0;
    r.payload = std::move(payload);
    return r;
}

TEST_F(JournalTest, Fnv1aMatchesReference) {
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

TEST_F(JournalTest, RoundtripPreservesBits) {
    JournalWriter::Options opts;
    opts.campaign_id = 0xfeedbeef;
    JournalWriter writer;
    ASSERT_TRUE(writer.open_fresh(path_, opts));
    // Payload values chosen to be bit-pattern hostile: negative zero,
    // denormal, huge, and an irrational dressed in full precision.
    writer.append_cell(make_record(0, 0, 0, {-0.0, 5e-324, 1.7e308, 0.1}));
    writer.append_cell(make_record(1, 2, 3, {}));
    writer.append_quarantine({7, 8, 9}, 3);
    writer.close();

    const JournalReplay replay = replay_journal(path_, 0xfeedbeef);
    ASSERT_TRUE(replay.present);
    EXPECT_FALSE(replay.torn_tail);
    EXPECT_FALSE(replay.checksum_mismatch);
    EXPECT_FALSE(replay.id_mismatch);
    ASSERT_EQ(replay.cells.size(), 2u);
    ASSERT_NE(find_cell(replay, {0, 0, 0}), nullptr);
    const std::vector<double>& p = find_cell(replay, {0, 0, 0})->payload;
    ASSERT_EQ(p.size(), 4u);
    EXPECT_TRUE(std::signbit(p[0]));
    EXPECT_EQ(p[1], 5e-324);
    EXPECT_EQ(p[2], 1.7e308);
    EXPECT_EQ(p[3], 0.1);
    ASSERT_NE(find_cell(replay, {1, 2, 3}), nullptr);
    EXPECT_TRUE(find_cell(replay, {1, 2, 3})->payload.empty());
    ASSERT_EQ(replay.quarantined.size(), 1u);
    EXPECT_EQ(replay.quarantined[0].first, (CellKey{7, 8, 9}));
    EXPECT_EQ(replay.quarantined[0].second, 3u);
}

TEST_F(JournalTest, TornTailIsDroppedAndResumable) {
    JournalWriter writer;
    ASSERT_TRUE(writer.open_fresh(path_, {}));
    writer.append_cell(make_record(0, 0, 0, {1.0}));
    writer.append_cell(make_record(0, 1, 0, {2.0}));
    writer.close();
    // A record header that promises more bytes than the file holds — what a
    // power cut mid-fwrite leaves behind.
    append_raw({0x01, 0x00, 0x00, 0x00, 0xff, 0x00, 0x00, 0x00, 0xde, 0xad});

    JournalReplay replay = replay_journal(path_, 0);
    ASSERT_TRUE(replay.present);
    EXPECT_TRUE(replay.torn_tail);
    EXPECT_EQ(replay.cells.size(), 2u);

    // Resuming truncates the torn bytes and appends cleanly after them.
    JournalWriter resumed;
    ASSERT_TRUE(resumed.open_resume(path_, {}, replay.valid_bytes));
    resumed.append_cell(make_record(0, 2, 0, {3.0}));
    resumed.close();

    replay = replay_journal(path_, 0);
    EXPECT_FALSE(replay.torn_tail);
    ASSERT_EQ(replay.cells.size(), 3u);
    ASSERT_NE(find_cell(replay, {0, 2, 0}), nullptr);
    EXPECT_EQ(find_cell(replay, {0, 2, 0})->payload, std::vector<double>{3.0});
}

TEST_F(JournalTest, CorruptChecksumStopsReplayAtLastGoodRecord) {
    JournalWriter writer;
    ASSERT_TRUE(writer.open_fresh(path_, {}));
    writer.append_cell(make_record(0, 0, 0, {1.0}));
    writer.append_cell(make_record(0, 1, 0, {2.0}));
    writer.close();
    corrupt_byte_from_end(4);  // inside the last record's payload

    const JournalReplay replay = replay_journal(path_, 0);
    ASSERT_TRUE(replay.present);
    EXPECT_TRUE(replay.checksum_mismatch);
    ASSERT_EQ(replay.cells.size(), 1u);
    EXPECT_EQ(replay.cells[0].key, (CellKey{0, 0, 0}));
    // valid_bytes excludes the poisoned record, so resume rewrites it.
    JournalWriter resumed;
    ASSERT_TRUE(resumed.open_resume(path_, {}, replay.valid_bytes));
    resumed.append_cell(make_record(0, 1, 0, {2.0}));
    resumed.close();
    const JournalReplay healed = replay_journal(path_, 0);
    EXPECT_FALSE(healed.checksum_mismatch);
    EXPECT_EQ(healed.cells.size(), 2u);
}

TEST_F(JournalTest, CampaignIdMismatchRefusesReplay) {
    JournalWriter::Options opts;
    opts.campaign_id = 1;
    JournalWriter writer;
    ASSERT_TRUE(writer.open_fresh(path_, opts));
    writer.append_cell(make_record(0, 0, 0, {1.0}));
    writer.close();

    const JournalReplay replay = replay_journal(path_, 2);
    EXPECT_TRUE(replay.id_mismatch);
    EXPECT_TRUE(replay.cells.empty());
}

TEST_F(JournalTest, MissingOrForeignFileIsNotPresent) {
    EXPECT_FALSE(replay_journal(path_, 0).present);
    append_raw({'n', 'o', 't', ' ', 'a', ' ', 'w', 'a', 'l', '\n'});
    EXPECT_FALSE(replay_journal(path_, 0).present);
}

TEST_F(JournalTest, CheckpointCadenceAndStats) {
    JournalWriter::Options opts;
    opts.checkpoint_every = 2;
    JournalWriter writer;
    ASSERT_TRUE(writer.open_fresh(path_, opts));
    std::uint64_t last_hook = 0;
    writer.set_append_hook([&](std::uint64_t appended) { last_hook = appended; });
    for (std::uint32_t i = 0; i < 5; ++i) {
        writer.append_cell(make_record(0, i, 0, {double(i)}));
    }
    const JournalStats stats = writer.stats();
    writer.close();
    EXPECT_EQ(stats.records_written, 5u);
    EXPECT_GE(stats.fsyncs, 2u);  // every 2nd append
    EXPECT_GT(stats.bytes_written, 0u);
    EXPECT_EQ(last_hook, 5u);
}

TEST_F(JournalTest, AppendHookRunsBeforeAnyOtherThreadAppends) {
    // The crash-point injector SIGKILLs from this hook, so while it runs no
    // other worker may append: the crash must land with exactly the records
    // it names on disk.  Count them through the file, not through the writer.
    constexpr std::uint64_t kAt = 5;
    JournalWriter writer;
    ASSERT_TRUE(writer.open_fresh(path_, {}));
    std::size_t on_disk_at_hook = 0;
    writer.set_append_hook([&](std::uint64_t appended) {
        if (appended != kAt) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        on_disk_at_hook = replay_journal(path_, 0).cells.size();
    });
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < 4; ++t) {
        threads.emplace_back([&writer, t] {
            for (std::uint32_t i = 0; i < 8; ++i) {
                writer.append_cell(make_record(t, i, 0, {double(i)}));
            }
        });
    }
    for (std::thread& th : threads) th.join();
    writer.close();
    EXPECT_EQ(on_disk_at_hook, kAt);
    EXPECT_EQ(replay_journal(path_, 0).cells.size(), 32u);
}

TEST_F(JournalTest, DuplicateKeyLastRecordWins) {
    // A crash can land between "record appended" and the campaign's bookkeeping,
    // so a resumed run may re-append a key the journal already holds.  Replay
    // deduplicates with last-record-wins and counts the folded-away duplicate
    // so the resilient driver knows the journal is worth compacting.
    JournalWriter writer;
    ASSERT_TRUE(writer.open_fresh(path_, {}));
    writer.append_cell(make_record(0, 0, 0, {1.0}));
    writer.append_cell(make_record(0, 0, 0, {2.0}));
    writer.close();
    const JournalReplay replay = replay_journal(path_, 0);
    ASSERT_EQ(replay.cells.size(), 1u);
    EXPECT_EQ(replay.superseded_records, 1u);
    EXPECT_EQ(find_cell(replay, {0, 0, 0})->payload, std::vector<double>{2.0});
}

TEST_F(JournalTest, DiskFullDegradesToMemoryWithDurablePrefixIntact) {
    // ENOSPC from record 3 on: the writer must keep records 1-2 durable,
    // flag itself degraded, fire the degrade hook exactly once, and absorb
    // every later append as an in-memory drop instead of crashing.
    JournalWriter writer;
    ASSERT_TRUE(writer.open_fresh(path_, {}));
    writer.set_disk_fault_hook([](DiskOp op, std::uint64_t record) {
        return op == DiskOp::kWrite && record >= 3 ? ENOSPC : 0;
    });
    int degrade_fires = 0;
    writer.set_degrade_hook([&] { ++degrade_fires; });
    writer.append_cell(make_record(0, 0, 0, {1.0}));
    writer.append_cell(make_record(0, 1, 0, {2.0}));
    writer.append_cell(make_record(0, 2, 0, {3.0}));  // refused: degrades
    writer.append_cell(make_record(0, 3, 0, {4.0}));  // dropped, no crash
    writer.append_quarantine({0, 4, 0}, 2);           // dropped, no crash
    const JournalStats stats = writer.stats();
    writer.close();  // idempotent on a degraded writer

    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(stats.write_failures, 1u);
    EXPECT_EQ(stats.records_dropped, 2u);
    EXPECT_EQ(degrade_fires, 1);

    // The durable prefix replays cleanly: exactly the records before ENOSPC.
    const JournalReplay replay = replay_journal(path_, 0);
    ASSERT_TRUE(replay.present);
    EXPECT_FALSE(replay.torn_tail);
    ASSERT_EQ(replay.cells.size(), 2u);
    EXPECT_NE(find_cell(replay, {0, 0, 0}), nullptr);
    EXPECT_NE(find_cell(replay, {0, 1, 0}), nullptr);
}

TEST_F(JournalTest, ShortWriteLeavesTornTailReplayAlreadyTolerates) {
    // A negative hook return injects a torn record: a PREFIX of the bytes
    // lands before the failure.  That is exactly the torn tail replay was
    // built for — the degraded journal must still resume cleanly.
    JournalWriter writer;
    ASSERT_TRUE(writer.open_fresh(path_, {}));
    writer.set_disk_fault_hook([](DiskOp op, std::uint64_t record) {
        return op == DiskOp::kWrite && record >= 2 ? -1 : 0;
    });
    writer.append_cell(make_record(0, 0, 0, {1.0}));
    writer.append_cell(make_record(0, 1, 0, {2.0}));  // torn mid-record
    const JournalStats stats = writer.stats();
    writer.close();

    EXPECT_TRUE(stats.degraded);
    const JournalReplay replay = replay_journal(path_, 0);
    ASSERT_TRUE(replay.present);
    EXPECT_TRUE(replay.torn_tail);
    ASSERT_EQ(replay.cells.size(), 1u);

    // valid_bytes excludes the torn prefix; a resume heals the journal.
    JournalWriter resumed;
    ASSERT_TRUE(resumed.open_resume(path_, {}, replay.valid_bytes));
    resumed.append_cell(make_record(0, 1, 0, {2.0}));
    resumed.close();
    EXPECT_FALSE(resumed.stats().degraded) << "resume must reset degradation";
    const JournalReplay healed = replay_journal(path_, 0);
    EXPECT_FALSE(healed.torn_tail);
    EXPECT_EQ(healed.cells.size(), 2u);
}

TEST_F(JournalTest, FailedSyncCheckpointAlsoDegrades) {
    // fsync is a durability promise; a disk that refuses it is as dead as
    // one that refuses writes.  checkpoint_every=1 forces a sync per record.
    JournalWriter::Options opts;
    opts.checkpoint_every = 1;
    JournalWriter writer;
    ASSERT_TRUE(writer.open_fresh(path_, opts));
    writer.set_disk_fault_hook([](DiskOp op, std::uint64_t record) {
        return op == DiskOp::kSync && record >= 2 ? EIO : 0;
    });
    writer.append_cell(make_record(0, 0, 0, {1.0}));
    writer.append_cell(make_record(0, 1, 0, {2.0}));  // sync refused: degrades
    writer.append_cell(make_record(0, 2, 0, {3.0}));  // dropped
    const JournalStats stats = writer.stats();
    writer.close();
    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(stats.write_failures, 1u);
    EXPECT_EQ(stats.records_dropped, 1u);
}

TEST_F(JournalTest, AttemptRecordsReplayForOpenCellsOnly) {
    // Attempt tallies persist the per-cell retry budget across process
    // restarts — but only for cells that never completed nor quarantined; a
    // later cell/quarantine record supersedes them.
    JournalWriter writer;
    ASSERT_TRUE(writer.open_fresh(path_, {}));
    writer.append_attempt({0, 0, 0}, 1);
    writer.append_attempt({0, 0, 0}, 2);   // max wins
    writer.append_attempt({0, 1, 0}, 1);
    writer.append_cell(make_record(0, 1, 0, {3.0}));  // completes: tally folded
    writer.append_attempt({0, 2, 0}, 1);
    writer.append_quarantine({0, 2, 0}, 2);  // quarantined: tally folded
    const JournalStats stats = writer.stats();
    writer.close();
    EXPECT_EQ(stats.attempt_records, 4u);

    const JournalReplay replay = replay_journal(path_, 0);
    ASSERT_EQ(replay.attempts.size(), 1u);
    EXPECT_EQ(replay.attempts[0].first, (CellKey{0, 0, 0}));
    EXPECT_EQ(replay.attempts[0].second, 2u);
    ASSERT_EQ(replay.cells.size(), 1u);
    ASSERT_EQ(replay.quarantined.size(), 1u);
    EXPECT_GE(replay.superseded_records, 3u);  // dup attempt + 2 folded tallies
}

}  // namespace
}  // namespace rfabm::exec
