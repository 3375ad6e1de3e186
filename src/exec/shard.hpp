// Sharded campaign execution: deterministic (die x corner) partitioning and
// crash-safe journal merging.
//
// A campaign is split into shards by die, so each shard calibrates only its
// own dies and no calibration work is duplicated across worker processes.
// Every shard writes its own write-ahead journal; merge_shard_journals()
// folds any set of shard journals into one compacted campaign journal whose
// bytes depend ONLY on the logical record content — not on shard count,
// record order, crash/restart history, or how many merge attempts preceded
// this one.  That is what makes sharded, crash-ridden campaign output
// byte-identical to an uninterrupted single-process run: the final output is
// always derived from a merged (or compacted) journal, and that journal is a
// canonical form.
//
// compact_journal() is the single-input case: rewriting a journal folds
// superseded records (duplicate cells, attempt tallies of completed cells)
// into a fresh generation, so resume cost stays O(cells) instead of
// O(attempts) no matter how many crash/retry cycles the campaign survived.
// Both writers publish atomically (temp file + rename), so a crash anywhere
// inside a merge or compaction leaves the previous generation intact.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/journal.hpp"

namespace rfabm::exec {

/// Identity of one shard within a campaign.
struct ShardSpec {
    std::uint32_t index = 0;
    std::uint32_t count = 1;

    bool valid() const { return count >= 1 && index < count; }
};

/// Round-robin die partition: die d belongs to shard d % count.  Keeping a
/// die's cells together means per-die calibration never crosses shards.
inline std::uint32_t shard_of_die(std::uint32_t die, std::uint32_t count) {
    return count == 0 ? 0 : die % count;
}

inline bool in_shard(const CellKey& key, const ShardSpec& shard) {
    return shard_of_die(key.die, shard.count) == shard.index;
}

/// Conventional journal path of one shard: "<stem>.shard<index>.wal".
std::string shard_journal_path(const std::string& stem, std::uint32_t index);

/// Conventional surrogate-store path of one shard: "<store>.shard<index>".
/// The coordinator folds these into <store> itself after the fleet drains.
std::string shard_surrogate_path(const std::string& store, std::uint32_t index);

/// Conventional journal path of one rebalance (recovery) worker:
/// "<stem>.rebal<index>.wal".  Indices are global and monotonic across
/// rebalance rounds so a coordinator crash mid-rebalance never reuses a
/// journal that might hold a torn tail from a different assignment.
std::string rebalance_journal_path(const std::string& stem, std::uint32_t index);

/// What a merge (or compaction) folded.
struct MergeStats {
    bool ok = false;                       ///< output journal written and published
    std::uint64_t journals_read = 0;       ///< inputs that existed with a valid header
    std::uint64_t cells = 0;               ///< unique completed cells in the output
    std::uint64_t quarantined = 0;         ///< quarantine records in the output
    std::uint64_t attempts_carried = 0;    ///< open-cell attempt tallies kept
    std::uint64_t superseded_dropped = 0;  ///< records folded away
    std::uint64_t torn_tails = 0;          ///< inputs that ended in a torn tail
};

/// Fold @p inputs (shard journals; missing files are skipped) into a fresh
/// compacted journal at @p out_path under @p campaign_id.  Journals carrying
/// a different campaign id contribute nothing (counted neither read nor
/// folded).  Records are written in canonical order — cells, quarantines,
/// then open attempts, each sorted by (die, env, meas) with last-record-wins
/// deduplication — so the output bytes are a pure function of the logical
/// content.  The output is written to "<out_path>.tmp" and renamed into
/// place after fsync; on any failure the previous file is left untouched.
/// An input path equal to @p out_path is allowed (that is compaction).
MergeStats merge_shard_journals(const std::vector<std::string>& inputs,
                                const std::string& out_path, std::uint64_t campaign_id);

/// Rewrite @p path as a compacted generation of itself (single-input merge).
/// False when the file is missing/foreign or the rewrite failed; the
/// original journal survives either way.
bool compact_journal(const std::string& path, std::uint64_t campaign_id,
                     MergeStats* stats = nullptr);

/// Process-wide fault seam inside the merge publish window: invoked with the
/// temp path after the merged generation is written, fsynced and closed but
/// BEFORE the rename() that publishes it.  Crash-resume tests SIGKILL here
/// to prove a coordinator death mid-publish still converges on byte-identical
/// output (the previous generation survives; the re-merge rewrites the temp).
/// Pass an empty function to clear.  Not thread-safe: install before any
/// merge runs.
void set_merge_publish_hook(std::function<void(const std::string& tmp_path)> hook);

/// One recovery worker's slice of a rebalance pass.
struct RebalanceAssignment {
    std::uint32_t worker = 0;           ///< index within this pass, 0-based
    std::vector<std::uint32_t> dies;    ///< dies re-homed onto this worker
    std::uint64_t cells = 0;            ///< missing cells those dies carry
};

/// Derive the cells a (dies x envs) campaign grid is still missing from the
/// durable journal record: fold @p inputs exactly as merge_shard_journals
/// does and report every grid cell (die, env, 0) that neither completed nor
/// quarantined, sorted die-major.  This is the rebalance planner's ground
/// truth — in-memory fleet state is never consulted, so the answer is
/// correct after any crash/degradation interleaving.
std::vector<CellKey> missing_cells(const std::vector<std::string>& inputs,
                                   std::uint64_t campaign_id, std::uint32_t dies,
                                   std::uint32_t envs);

/// Deterministically re-partition the dies of @p missing onto @p workers
/// recovery workers (clamped to [1, distinct dies]): distinct dies sorted
/// ascending, die i -> worker i % count.  Same inputs always produce the
/// same plan, so a resumed coordinator re-derives identical assignments.
std::vector<RebalanceAssignment> plan_rebalance(const std::vector<CellKey>& missing,
                                                std::uint32_t workers);

}  // namespace rfabm::exec
