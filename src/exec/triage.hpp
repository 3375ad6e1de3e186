// Campaign triage: quarantine, failure-rate breaker, and the structured
// end-of-campaign TriageReport.
//
// Together with the journal and the watchdog these implement graceful
// degradation: a cell that keeps failing is quarantined (its budget of
// attempts is spent, the campaign moves on and the journal remembers so a
// resumed run does not retry it either); a burst of failures trips a
// sliding-window breaker that sheds *optional* cells to preserve wall-clock
// budget for the mandatory ones; and every campaign ends with a TriageReport
// tallying exactly what happened to every cell.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/journal.hpp"

namespace rfabm::rf::surrogate {
class SurrogateStore;
}

namespace rfabm::exec {

/// Terminal disposition of one campaign cell.  The numeric values are
/// written into journal records — append only, never renumber.
enum class CellOutcome : std::uint32_t {
    kOk = 0,          ///< delivered a result on a clean attempt
    kDegraded = 1,    ///< delivered a result via a fallback path
    kFailed = 2,      ///< attempt threw (convergence or other error)
    kTimedOut = 3,    ///< watchdog expired the attempt's deadline
    kNonFinite = 4,   ///< solver produced NaN/Inf (not retried)
    kQuarantined = 5, ///< exhausted max_cell_attempts, permanently benched
    kShed = 6,        ///< optional cell skipped by the tripped breaker
    kReplayed = 7,    ///< delivered from the journal on resume
};
constexpr std::size_t kNumCellOutcomes = 8;

const char* to_string(CellOutcome outcome);

/// Sliding-window failure-rate circuit breaker.  Trips when, over the last
/// `window` cells, the failure fraction reaches `threshold` (after at least
/// `min_samples` observations); recovers as successes refill the window.
class FailureBreaker {
  public:
    struct Options {
        std::size_t window = 16;
        double threshold = 0.5;
        std::size_t min_samples = 8;
    };

    FailureBreaker();
    explicit FailureBreaker(Options options);

    void record(bool success);
    /// Current state (recovers when the windowed rate drops back).
    bool tripped() const;
    /// Sticky: has the breaker ever tripped this campaign?
    bool ever_tripped() const;

  private:
    mutable std::mutex mutex_;
    Options options_;
    std::deque<bool> window_;  // true = failure
    std::size_t failures_ = 0;
    bool ever_tripped_ = false;
};

/// Cells permanently benched after exhausting their attempt budget.
class Quarantine {
  public:
    void add(const CellKey& key, std::uint32_t attempts);
    bool contains(const CellKey& key) const;
    std::vector<std::pair<CellKey, std::uint32_t>> cells() const;
    std::size_t size() const;

  private:
    mutable std::mutex mutex_;
    std::unordered_map<CellKey, std::uint32_t, CellKeyHash> cells_;
};

/// Structured triage key under which journal degradation — a worker that
/// fell back to in-memory execution after persistent disk failure —
/// surfaces in the report JSON.  Grep-stable: CI chaos scenarios and the
/// disk-fault tests key on this literal.
inline constexpr const char* kJournalDegraded = "journal_degraded";

/// One launch attempt of a supervised shard worker (ShardSupervisor).
struct ShardAttempt {
    int attempt = 0;          ///< 0-based launch attempt
    bool resume = false;      ///< journal replayed before running
    bool shed = false;        ///< breaker escalation was in effect
    bool rebalance = false;   ///< launch belonged to a recovery (rebalance) fleet
    std::int64_t backoff_ms = 0;  ///< restart delay waited before this launch
    /// How the attempt ended: "completed", "crashed", "hung",
    /// "spawn-failed", "journal-degraded" (worker's disk refused writes;
    /// given up immediately for rebalance), or "running" (supervision ended
    /// mid-attempt).
    std::string ended = "running";
};

/// Restart/backoff telemetry of one supervised shard, as surfaced in the
/// TriageReport JSON (mirrors ShardSupervisor::WorkerReport).
struct ShardHistory {
    std::uint32_t shard = 0;
    int launches = 0;
    int crashes = 0;   ///< nonzero exits + signal deaths
    int hangs = 0;     ///< stall kills among them
    int slow_flags = 0;
    bool completed = false;
    bool gave_up = false;
    bool journal_degraded = false;  ///< worker degraded to in-memory execution
    bool rebalance = false;         ///< this is a recovery (rebalance) worker
    std::vector<ShardAttempt> attempts;
};

/// One recovery assignment of the coordinator's rebalance pass: dies whose
/// cells were still missing from the on-disk journals after the primary
/// fleet drained, re-homed onto a recovery worker writing
/// "<stem>.rebal<worker>.wal".  Derived purely from journals, never from
/// in-memory fleet state.
struct RebalanceRecord {
    std::uint32_t round = 0;   ///< rebalance pass, 1-based
    std::uint32_t worker = 0;  ///< recovery journal index (global, monotonic)
    /// Why the dies needed re-homing: "gave-up", "journal-degraded",
    /// "shed", "incomplete" (joined with '+' when mixed) or
    /// "rebalance-retry" for rounds past the first.
    std::string reason;
    std::vector<std::uint32_t> dies;
    std::uint64_t cells = 0;   ///< missing cells assigned
    bool completed = false;    ///< recovery worker exited clean
};

/// Two-tier surrogate serving tallies, as surfaced in the TriageReport
/// (mirrors rf::surrogate::StoreCounters plus fit-quality reporting).
struct SurrogateStats {
    bool enabled = false;  ///< a store was bound to this campaign
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t out_of_envelope = 0;
    std::uint64_t bound_too_loose = 0;
    std::uint64_t observed = 0;       ///< full-solve samples fed back
    std::uint64_t refits = 0;
    std::uint64_t load_rejected = 0;  ///< persisted stores discarded at load
    std::uint64_t save_failed = 0;    ///< persistence attempts the disk refused
    std::uint64_t surfaces = 0;       ///< keys holding a valid fitted surface
    double worst_error_bound = 0.0;   ///< max published bound across surfaces

    std::uint64_t lookups() const {
        return hits + misses + out_of_envelope + bound_too_loose;
    }
};

/// The triage section of a campaign bound to @p store: its counters so far,
/// its surface count and worst published bound.
SurrogateStats surrogate_stats(const rf::surrogate::SurrogateStore& store);

/// Structured end-of-campaign summary: per-outcome counts, the quarantine
/// roster, watchdog and journal health, per-shard supervision history.
/// Emitted as text (stderr) and JSON (machine triage).
struct TriageReport {
    std::array<std::uint64_t, kNumCellOutcomes> counts{};
    std::vector<std::pair<CellKey, std::uint32_t>> quarantined_cells;
    /// Human-readable details of quarantined cells ("die 3 / env 1: ...").
    std::vector<std::string> quarantine_details;
    std::uint64_t cells_total = 0;
    std::uint64_t watchdog_fires = 0;
    bool breaker_tripped = false;
    JournalStats journal;
    /// Per-shard restart/backoff/attempt history (sharded campaigns only;
    /// empty for single-process runs).
    std::vector<ShardHistory> shards;
    /// Coordinator rebalance passes (empty when the primary fleet finished
    /// everything).
    std::vector<RebalanceRecord> rebalances;
    /// Two-tier surrogate serving decisions (all-zero when no store bound).
    SurrogateStats surrogate;

    std::uint64_t count(CellOutcome outcome) const {
        return counts[static_cast<std::size_t>(outcome)];
    }
    /// Every cell accounted for and none failed, timed out, or was benched.
    bool clean() const;

    std::string to_string() const;
    std::string to_json() const;
};

}  // namespace rfabm::exec
