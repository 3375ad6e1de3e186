#include "exec/shard.hpp"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

namespace rfabm::exec {

namespace {

bool key_less(const CellKey& a, const CellKey& b) {
    return std::tie(a.die, a.env, a.meas) < std::tie(b.die, b.env, b.meas);
}

std::function<void(const std::string&)>& merge_publish_hook() {
    static std::function<void(const std::string&)> hook;
    return hook;
}

}  // namespace

std::string shard_journal_path(const std::string& stem, std::uint32_t index) {
    return stem + ".shard" + std::to_string(index) + ".wal";
}

std::string shard_surrogate_path(const std::string& store, std::uint32_t index) {
    return store + ".shard" + std::to_string(index);
}

std::string rebalance_journal_path(const std::string& stem, std::uint32_t index) {
    return stem + ".rebal" + std::to_string(index) + ".wal";
}

void set_merge_publish_hook(std::function<void(const std::string& tmp_path)> hook) {
    merge_publish_hook() = std::move(hook);
}

MergeStats merge_shard_journals(const std::vector<std::string>& inputs,
                                const std::string& out_path, std::uint64_t campaign_id) {
    MergeStats stats;

    // Fold every input into last-wins maps.  Inputs are processed in the
    // caller's order, but because shards own disjoint cell sets (and a
    // single cell's re-journaled records carry identical bits), the fold is
    // order-insensitive in practice — and the canonical sort below makes the
    // output bytes order-independent regardless.
    std::unordered_map<CellKey, CellRecord, CellKeyHash> cells;
    std::unordered_map<CellKey, std::uint32_t, CellKeyHash> quarantined;
    std::unordered_map<CellKey, std::uint32_t, CellKeyHash> attempts;
    for (const std::string& path : inputs) {
        JournalReplay replay = replay_journal(path, campaign_id);
        if (!replay.present) continue;
        ++stats.journals_read;
        if (replay.torn_tail) ++stats.torn_tails;
        stats.superseded_dropped += replay.superseded_records;
        for (CellRecord& record : replay.cells) {
            if (auto it = cells.find(record.key); it != cells.end()) {
                it->second = std::move(record);
                ++stats.superseded_dropped;
            } else {
                cells.emplace(record.key, std::move(record));
            }
        }
        for (const auto& [key, burned] : replay.quarantined) quarantined[key] = burned;
        for (const auto& [key, burned] : replay.attempts) {
            auto [it, fresh] = attempts.emplace(key, burned);
            if (!fresh) it->second = std::max(it->second, burned);
        }
    }
    // A cell that completed (or quarantined) in one shard journal supersedes
    // attempt tallies for it in any other generation.
    for (auto it = attempts.begin(); it != attempts.end();) {
        if (cells.count(it->first) != 0 || quarantined.count(it->first) != 0) {
            ++stats.superseded_dropped;
            it = attempts.erase(it);
        } else {
            ++it;
        }
    }

    // Canonical order: record type, then key.
    std::vector<const CellRecord*> cell_order;
    cell_order.reserve(cells.size());
    for (const auto& [key, record] : cells) cell_order.push_back(&record);
    std::sort(cell_order.begin(), cell_order.end(),
              [](const CellRecord* a, const CellRecord* b) { return key_less(a->key, b->key); });
    auto sorted_pairs = [](const std::unordered_map<CellKey, std::uint32_t, CellKeyHash>& map) {
        std::vector<std::pair<CellKey, std::uint32_t>> out(map.begin(), map.end());
        std::sort(out.begin(), out.end(),
                  [](const auto& a, const auto& b) { return key_less(a.first, b.first); });
        return out;
    };

    // Write the merged generation to a temp file and publish with rename():
    // a crash mid-merge leaves the previous generation readable, and a
    // repeated merge after such a crash converges on the same bytes.
    const std::string tmp_path = out_path + ".tmp";
    {
        JournalWriter writer;
        JournalWriter::Options wopts;
        wopts.campaign_id = campaign_id;
        wopts.checkpoint_every = 0;  // close() syncs once; no mid-merge fsync churn
        if (!writer.open_fresh(tmp_path, wopts)) return stats;
        for (const CellRecord* record : cell_order) writer.append_cell(*record);
        for (const auto& [key, burned] : sorted_pairs(quarantined)) {
            writer.append_quarantine(key, burned);
        }
        for (const auto& [key, burned] : sorted_pairs(attempts)) {
            writer.append_attempt(key, burned);
        }
        writer.close();
    }
    // Publish window: temp generation is durable, previous generation is
    // still live at out_path.  A crash injected here must be recoverable.
    if (merge_publish_hook()) merge_publish_hook()(tmp_path);
    if (std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
        std::remove(tmp_path.c_str());
        return stats;
    }

    stats.cells = cells.size();
    stats.quarantined = quarantined.size();
    stats.attempts_carried = attempts.size();
    stats.ok = true;
    return stats;
}

bool compact_journal(const std::string& path, std::uint64_t campaign_id, MergeStats* stats) {
    const JournalReplay probe = replay_journal(path, campaign_id);
    if (!probe.present) return false;
    const MergeStats merged = merge_shard_journals({path}, path, campaign_id);
    if (stats != nullptr) *stats = merged;
    return merged.ok;
}

std::vector<CellKey> missing_cells(const std::vector<std::string>& inputs,
                                   std::uint64_t campaign_id, std::uint32_t dies,
                                   std::uint32_t envs) {
    // Same last-wins fold as the merge: a cell is "done" once any durable
    // record completed or quarantined it, no matter which journal generation
    // (shard, rebalance, or post-crash resume) holds the record.
    std::unordered_set<CellKey, CellKeyHash> done;
    for (const std::string& path : inputs) {
        JournalReplay replay = replay_journal(path, campaign_id);
        if (!replay.present) continue;
        for (const CellRecord& record : replay.cells) done.insert(record.key);
        for (const auto& [key, burned] : replay.quarantined) done.insert(key);
    }
    std::vector<CellKey> missing;
    for (std::uint32_t d = 0; d < dies; ++d) {
        for (std::uint32_t e = 0; e < envs; ++e) {
            const CellKey key{d, e, 0};
            if (done.find(key) == done.end()) missing.push_back(key);
        }
    }
    // Die-major by construction, but sort anyway: the planner's determinism
    // must not depend on the loop shape above.
    std::sort(missing.begin(), missing.end(),
              [](const CellKey& a, const CellKey& b) { return key_less(a, b); });
    return missing;
}

std::vector<RebalanceAssignment> plan_rebalance(const std::vector<CellKey>& missing,
                                                std::uint32_t workers) {
    std::vector<RebalanceAssignment> plan;
    if (missing.empty()) return plan;
    std::vector<std::uint32_t> dies;
    std::unordered_map<std::uint32_t, std::uint64_t> cells_per_die;
    for (const CellKey& key : missing) {
        auto [it, fresh] = cells_per_die.emplace(key.die, 0);
        if (fresh) dies.push_back(key.die);
        ++it->second;
    }
    std::sort(dies.begin(), dies.end());
    const std::uint32_t count = std::max<std::uint32_t>(
        1, std::min<std::uint32_t>(workers, static_cast<std::uint32_t>(dies.size())));
    plan.resize(count);
    for (std::uint32_t w = 0; w < count; ++w) plan[w].worker = w;
    for (std::size_t i = 0; i < dies.size(); ++i) {
        RebalanceAssignment& slot = plan[i % count];
        slot.dies.push_back(dies[i]);
        slot.cells += cells_per_die[dies[i]];
    }
    return plan;
}

}  // namespace rfabm::exec
