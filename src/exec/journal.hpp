// Write-ahead campaign journal: crash-safe record of completed cells.
//
// A campaign journal is an append-only binary log.  Every completed
// (die, env, measurement) cell is appended as one length-prefixed,
// FNV-checksummed record carrying the cell's result payload; a periodic
// fsync checkpoint bounds how much completed work a crash can lose.  On
// restart, replay_journal() walks the log record by record, stops cleanly at
// a torn tail (the half-written record of the crash itself) or at a corrupt
// checksum, and hands back every intact cell so the campaign resumes by
// re-running only what is missing.  Because the original result *bits* are
// replayed, a resumed campaign's merged output is byte-identical to an
// uninterrupted run (see docs/resilience.md for the format).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rfabm::exec {

/// FNV-1a 64-bit over a byte range: the journal's record checksum.
std::uint64_t fnv1a64(const void* data, std::size_t size);

/// Identity of one campaign cell.  `die` indexes the process-corner
/// population, `env` the environmental corner, `meas` the measurement within
/// the cell (0 when a cell is one fused sweep).
struct CellKey {
    std::uint32_t die = 0;
    std::uint32_t env = 0;
    std::uint32_t meas = 0;

    bool operator==(const CellKey&) const = default;
    std::string to_string() const;
};

struct CellKeyHash {
    std::size_t operator()(const CellKey& k) const {
        // Pack the three small indices and FNV-mix them.
        const std::uint64_t packed =
            (static_cast<std::uint64_t>(k.die) << 40) ^
            (static_cast<std::uint64_t>(k.env) << 20) ^ static_cast<std::uint64_t>(k.meas);
        return static_cast<std::size_t>(fnv1a64(&packed, sizeof packed));
    }
};

/// One journaled cell: the key, the triage outcome it completed with (a
/// CellOutcome value, stored wide for format stability) and the raw result
/// payload, bit-exact.
struct CellRecord {
    CellKey key;
    std::uint32_t outcome = 0;
    std::vector<double> payload;
};

/// Journal health/effort counters, merged into the TriageReport.
struct JournalStats {
    std::uint64_t records_written = 0;    ///< cell + quarantine + attempt records appended
    std::uint64_t quarantine_records = 0; ///< quarantine records among them
    std::uint64_t attempt_records = 0;    ///< failed-attempt records among them
    std::uint64_t records_replayed = 0;   ///< intact cell records recovered
    std::uint64_t bytes_written = 0;
    std::uint64_t fsyncs = 0;             ///< durability checkpoints taken
    std::uint64_t write_failures = 0;     ///< appends the disk refused (ENOSPC/EIO/short write)
    std::uint64_t records_dropped = 0;    ///< appends after degradation (in-memory only)
    bool degraded = false;                ///< writer fell back to in-memory execution
    bool torn_tail = false;               ///< replay stopped at a half-written tail
    bool checksum_mismatch = false;       ///< replay stopped at a corrupt record
    bool id_mismatch = false;             ///< journal belonged to a different campaign
};

/// Outcome of replaying a journal file.
struct JournalReplay {
    /// Intact completed cells, deduplicated: when a key appears more than
    /// once (merged shard journals, a re-journaled retry) the LAST record
    /// wins, and the earlier ones count as superseded_records.
    std::vector<CellRecord> cells;
    /// Cells a previous run quarantined (key, attempts burned).
    std::vector<std::pair<CellKey, std::uint32_t>> quarantined;
    /// Attempts burned on cells that never completed nor quarantined: a
    /// resumed run charges these against max_cell_attempts so a cell that
    /// keeps crashing its worker cannot retry forever across restarts.
    std::vector<std::pair<CellKey, std::uint32_t>> attempts;
    /// Records folded away by deduplication: duplicate cell/quarantine
    /// records plus attempt records whose cell since completed.  A resume
    /// with superseded records compacts the journal (see shard.hpp) so the
    /// next replay is O(cells), not O(attempts).
    std::uint64_t superseded_records = 0;
    /// File offset just past the last intact record; a resuming writer
    /// truncates the file here before appending (dropping the torn tail).
    std::uint64_t valid_bytes = 0;
    bool present = false;  ///< the file existed and carried a valid header
    bool torn_tail = false;
    bool checksum_mismatch = false;
    bool id_mismatch = false;
};

/// Read just the campaign id from a journal header.  False when the file is
/// missing or not a journal.
bool read_journal_id(const std::string& path, std::uint64_t* campaign_id);

/// Replay @p path.  Never throws: a missing, empty or foreign file comes
/// back with present == false and no cells.  Corruption truncates the replay
/// at the last intact record (the records before it are still served).
JournalReplay replay_journal(const std::string& path, std::uint64_t campaign_id);

/// Physical journal operation a disk-fault hook is consulted about.
enum class DiskOp : std::uint32_t {
    kWrite = 0,  ///< appending one record's bytes
    kSync = 1,   ///< a durability checkpoint (fsync)
};

/// Persistence fault seam (same idiom as the kCrashPoint append hook):
/// consulted before every physical write/fsync with the operation and the
/// 1-based sequence number of the record being appended.  Returning a
/// positive errno makes the operation fail as if the disk had refused it;
/// returning a negative value injects a short write — a prefix of the
/// record reaches the file (a torn tail the replay already tolerates)
/// before the failure.  Zero lets the operation through.
using DiskFaultHook = std::function<int(DiskOp op, std::uint64_t record)>;

/// Appends records.  Thread-safe: campaign workers append concurrently as
/// cells finish.  Writes go through stdio with an explicit flush per record
/// (a SIGKILL loses at most the record being formatted) and an fsync every
/// `checkpoint_every` records (a power cut loses at most one checkpoint
/// interval).
class JournalWriter {
  public:
    struct Options {
        std::uint64_t campaign_id = 0;
        /// fsync cadence, in records; 0 disables periodic fsync (close()
        /// still syncs).
        std::uint64_t checkpoint_every = 8;
    };

    JournalWriter() = default;
    ~JournalWriter();

    JournalWriter(const JournalWriter&) = delete;
    JournalWriter& operator=(const JournalWriter&) = delete;

    /// Start a fresh journal (truncates any existing file).  False on I/O
    /// failure (campaign proceeds unjournaled; the caller decides whether
    /// that is fatal).
    bool open_fresh(const std::string& path, const Options& options);

    /// Resume an existing journal: truncate the file to @p valid_bytes (from
    /// JournalReplay — drops a torn tail) and append after it.
    bool open_resume(const std::string& path, const Options& options,
                     std::uint64_t valid_bytes);

    bool is_open() const;

    void append_cell(const CellRecord& record);
    void append_quarantine(const CellKey& key, std::uint32_t attempts);
    /// Record that @p key has burned @p attempts attempts in total without
    /// completing.  Superseded by a later cell/quarantine record for the same
    /// key; folded away by compaction.
    void append_attempt(const CellKey& key, std::uint32_t attempts);

    /// Force a durability checkpoint now (flush + fsync).
    void checkpoint();

    /// Flush, fsync and close.  Idempotent.
    void close();

    JournalStats stats() const;

    /// Hook invoked under the writer lock after each record is appended and
    /// flushed, with the running append count, so no other thread appends
    /// until it returns.  It must not call back into the writer.  The
    /// kCrashPoint fault injector uses it to kill the process at a chosen
    /// journal position.
    void set_append_hook(std::function<void(std::uint64_t)> hook);

    /// Install a disk-fault hook (kDiskFault injectors).  A failed write,
    /// short write or failed sync — injected or real — degrades the writer:
    /// the durable prefix is flushed, fsynced and closed, and every later
    /// append becomes an in-memory no-op (counted in records_dropped) with
    /// stats().degraded set.  The campaign keeps running; a coordinator
    /// treats the degraded shard like a crashed one and rebalances whatever
    /// the durable prefix is missing.
    void set_disk_fault_hook(DiskFaultHook hook);

    /// Hook invoked (outside the writer lock) exactly once, at the moment
    /// the writer degrades to in-memory operation.  Sharded workers use it
    /// to cancel remaining compute whose results could never be journaled.
    void set_degrade_hook(std::function<void()> hook);

  private:
    void append_record(std::uint32_t type, const std::vector<unsigned char>& payload);
    /// Flush + fsync + close the durable prefix and enter degraded mode.
    /// Caller holds mutex_.
    void degrade_locked();

    mutable std::mutex mutex_;
    std::FILE* file_ = nullptr;
    Options options_{};
    JournalStats stats_{};
    std::uint64_t appends_since_sync_ = 0;
    bool degraded_ = false;
    std::function<void(std::uint64_t)> hook_;
    DiskFaultHook disk_fault_hook_;
    std::function<void()> degrade_hook_;
};

}  // namespace rfabm::exec
