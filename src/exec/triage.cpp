#include "exec/triage.hpp"

#include <sstream>

#include "rf/surrogate/store.hpp"

namespace rfabm::exec {

SurrogateStats surrogate_stats(const rf::surrogate::SurrogateStore& store) {
    const rf::surrogate::StoreCounters c = store.counters();
    SurrogateStats s;
    s.enabled = true;
    s.hits = c.hits;
    s.misses = c.misses;
    s.out_of_envelope = c.out_of_envelope;
    s.bound_too_loose = c.bound_too_loose;
    s.observed = c.observed;
    s.refits = c.refits;
    s.load_rejected = c.load_rejected;
    s.save_failed = c.save_failed;
    s.surfaces = store.surfaces();
    s.worst_error_bound = store.worst_error_bound();
    return s;
}

const char* to_string(CellOutcome outcome) {
    switch (outcome) {
        case CellOutcome::kOk: return "ok";
        case CellOutcome::kDegraded: return "degraded";
        case CellOutcome::kFailed: return "failed";
        case CellOutcome::kTimedOut: return "timed_out";
        case CellOutcome::kNonFinite: return "non_finite";
        case CellOutcome::kQuarantined: return "quarantined";
        case CellOutcome::kShed: return "shed";
        case CellOutcome::kReplayed: return "replayed";
    }
    return "unknown";
}

FailureBreaker::FailureBreaker() : FailureBreaker(Options()) {}

FailureBreaker::FailureBreaker(Options options) : options_(options) {
    if (options_.window == 0) options_.window = 1;
}

void FailureBreaker::record(bool success) {
    std::lock_guard<std::mutex> lock(mutex_);
    window_.push_back(!success);
    if (!success) ++failures_;
    while (window_.size() > options_.window) {
        if (window_.front()) --failures_;
        window_.pop_front();
    }
    if (window_.size() >= options_.min_samples &&
        static_cast<double>(failures_) >= options_.threshold * static_cast<double>(window_.size())) {
        ever_tripped_ = true;
    }
}

bool FailureBreaker::tripped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return window_.size() >= options_.min_samples &&
           static_cast<double>(failures_) >=
               options_.threshold * static_cast<double>(window_.size());
}

bool FailureBreaker::ever_tripped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ever_tripped_;
}

void Quarantine::add(const CellKey& key, std::uint32_t attempts) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = cells_.emplace(key, attempts);
    if (!inserted && attempts > it->second) it->second = attempts;
}

bool Quarantine::contains(const CellKey& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return cells_.find(key) != cells_.end();
}

std::vector<std::pair<CellKey, std::uint32_t>> Quarantine::cells() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<CellKey, std::uint32_t>> out(cells_.begin(), cells_.end());
    return out;
}

std::size_t Quarantine::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return cells_.size();
}

bool TriageReport::clean() const {
    return count(CellOutcome::kFailed) == 0 && count(CellOutcome::kTimedOut) == 0 &&
           count(CellOutcome::kNonFinite) == 0 && count(CellOutcome::kQuarantined) == 0 &&
           count(CellOutcome::kShed) == 0;
}

std::string TriageReport::to_string() const {
    std::ostringstream os;
    os << "triage: " << cells_total << " cells";
    for (std::size_t i = 0; i < kNumCellOutcomes; ++i) {
        if (counts[i] == 0) continue;
        os << ", " << counts[i] << " " << rfabm::exec::to_string(static_cast<CellOutcome>(i));
    }
    os << "\n  watchdog fires: " << watchdog_fires
       << ", breaker " << (breaker_tripped ? "TRIPPED" : "quiet");
    os << "\n  journal: " << journal.records_written << " written, " << journal.records_replayed
       << " replayed, " << journal.fsyncs << " fsyncs, " << journal.bytes_written << " bytes";
    if (journal.torn_tail) os << ", torn tail recovered";
    if (journal.checksum_mismatch) os << ", corrupt record truncated";
    if (journal.degraded) {
        os << "\n  journal DEGRADED: " << journal.write_failures << " write failure"
           << (journal.write_failures == 1 ? "" : "s") << ", " << journal.records_dropped
           << " record(s) kept in memory only";
    }
    if (surrogate.enabled) {
        os << "\n  surrogate: " << surrogate.hits << "/" << surrogate.lookups()
           << " served (" << surrogate.misses << " miss, " << surrogate.out_of_envelope
           << " out-of-envelope, " << surrogate.bound_too_loose << " bound-too-loose), "
           << surrogate.observed << " observed, " << surrogate.refits << " refits, "
           << surrogate.surfaces << " surfaces, worst bound " << surrogate.worst_error_bound
           << " V";
        if (surrogate.load_rejected > 0) {
            os << ", " << surrogate.load_rejected << " persisted store(s) REJECTED at load";
        }
        if (surrogate.save_failed > 0) {
            os << ", " << surrogate.save_failed << " save(s) FAILED (previous generation kept)";
        }
    }
    for (const auto& [key, attempts] : quarantined_cells) {
        os << "\n  quarantined: " << key.to_string() << " after " << attempts << " attempts";
    }
    for (const std::string& detail : quarantine_details) {
        os << "\n    " << detail;
    }
    for (const ShardHistory& shard : shards) {
        os << "\n  " << (shard.rebalance ? "rebalance worker " : "shard ") << shard.shard
           << ": " << shard.launches << " launch" << (shard.launches == 1 ? "" : "es") << ", "
           << shard.crashes << " crash" << (shard.crashes == 1 ? "" : "es") << " (" << shard.hangs
           << " hung), "
           << (shard.completed ? "completed" : (shard.gave_up ? "gave up" : "unfinished"));
        if (shard.journal_degraded) os << ", journal degraded";
        for (const ShardAttempt& attempt : shard.attempts) {
            os << "\n    attempt " << attempt.attempt << ": "
               << (attempt.resume ? "resume" : "fresh");
            if (attempt.backoff_ms > 0) os << " after " << attempt.backoff_ms << "ms backoff";
            if (attempt.shed) os << ", shedding optional";
            os << " -> " << attempt.ended;
        }
    }
    for (const RebalanceRecord& rebalance : rebalances) {
        os << "\n  rebalance round " << rebalance.round << " worker " << rebalance.worker << " ("
           << rebalance.reason << "): " << rebalance.cells << " cell"
           << (rebalance.cells == 1 ? "" : "s") << " over " << rebalance.dies.size() << " die"
           << (rebalance.dies.size() == 1 ? "" : "s") << " ->"
           << (rebalance.completed ? " completed" : " unfinished");
    }
    return os.str();
}

std::string TriageReport::to_json() const {
    std::ostringstream os;
    os << "{\"cells_total\": " << cells_total;
    for (std::size_t i = 0; i < kNumCellOutcomes; ++i) {
        os << ", \"" << rfabm::exec::to_string(static_cast<CellOutcome>(i))
           << "\": " << counts[i];
    }
    os << ", \"watchdog_fires\": " << watchdog_fires
       << ", \"breaker_tripped\": " << (breaker_tripped ? "true" : "false");
    os << ", \"journal\": {\"records_written\": " << journal.records_written
       << ", \"quarantine_records\": " << journal.quarantine_records
       << ", \"records_replayed\": " << journal.records_replayed
       << ", \"bytes_written\": " << journal.bytes_written << ", \"fsyncs\": " << journal.fsyncs
       << ", \"write_failures\": " << journal.write_failures
       << ", \"records_dropped\": " << journal.records_dropped
       << ", \"degraded\": " << (journal.degraded ? "true" : "false")
       << ", \"torn_tail\": " << (journal.torn_tail ? "true" : "false")
       << ", \"checksum_mismatch\": " << (journal.checksum_mismatch ? "true" : "false") << "}";
    bool any_degraded = journal.degraded;
    for (const ShardHistory& shard : shards) any_degraded = any_degraded || shard.journal_degraded;
    os << ", \"" << kJournalDegraded << "\": " << (any_degraded ? "true" : "false");
    os << ", \"quarantined_cells\": [";
    for (std::size_t i = 0; i < quarantined_cells.size(); ++i) {
        const auto& [key, attempts] = quarantined_cells[i];
        if (i != 0) os << ", ";
        os << "{\"die\": " << key.die << ", \"env\": " << key.env << ", \"meas\": " << key.meas
           << ", \"attempts\": " << attempts << "}";
    }
    os << "], \"surrogate\": {\"enabled\": " << (surrogate.enabled ? "true" : "false")
       << ", \"hits\": " << surrogate.hits << ", \"misses\": " << surrogate.misses
       << ", \"out_of_envelope\": " << surrogate.out_of_envelope
       << ", \"bound_too_loose\": " << surrogate.bound_too_loose
       << ", \"observed\": " << surrogate.observed << ", \"refits\": " << surrogate.refits
       << ", \"load_rejected\": " << surrogate.load_rejected
       << ", \"save_failed\": " << surrogate.save_failed
       << ", \"surfaces\": " << surrogate.surfaces
       << ", \"worst_error_bound\": " << surrogate.worst_error_bound << "}";
    os << ", \"shards\": [";
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const ShardHistory& shard = shards[i];
        if (i != 0) os << ", ";
        os << "{\"shard\": " << shard.shard << ", \"launches\": " << shard.launches
           << ", \"crashes\": " << shard.crashes << ", \"hangs\": " << shard.hangs
           << ", \"slow_flags\": " << shard.slow_flags
           << ", \"completed\": " << (shard.completed ? "true" : "false")
           << ", \"gave_up\": " << (shard.gave_up ? "true" : "false")
           << ", \"journal_degraded\": " << (shard.journal_degraded ? "true" : "false")
           << ", \"rebalance\": " << (shard.rebalance ? "true" : "false")
           << ", \"attempts\": [";
        for (std::size_t a = 0; a < shard.attempts.size(); ++a) {
            const ShardAttempt& attempt = shard.attempts[a];
            if (a != 0) os << ", ";
            os << "{\"attempt\": " << attempt.attempt
               << ", \"resume\": " << (attempt.resume ? "true" : "false")
               << ", \"shed\": " << (attempt.shed ? "true" : "false")
               << ", \"rebalance\": " << (attempt.rebalance ? "true" : "false")
               << ", \"backoff_ms\": " << attempt.backoff_ms << ", \"ended\": \""
               << attempt.ended << "\"}";
        }
        os << "]}";
    }
    os << "], \"rebalances\": [";
    for (std::size_t i = 0; i < rebalances.size(); ++i) {
        const RebalanceRecord& rebalance = rebalances[i];
        if (i != 0) os << ", ";
        os << "{\"round\": " << rebalance.round << ", \"worker\": " << rebalance.worker
           << ", \"reason\": \"" << rebalance.reason << "\", \"dies\": [";
        for (std::size_t d = 0; d < rebalance.dies.size(); ++d) {
            if (d != 0) os << ", ";
            os << rebalance.dies[d];
        }
        os << "], \"cells\": " << rebalance.cells
           << ", \"completed\": " << (rebalance.completed ? "true" : "false") << "}";
    }
    os << "]}";
    return os.str();
}

}  // namespace rfabm::exec
