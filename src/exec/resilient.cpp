#include "exec/resilient.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <tuple>
#include <unordered_map>

#include "circuit/dc.hpp"
#include "exec/shard.hpp"

namespace rfabm::exec {

namespace {

/// Shared mutable state for one resilient run; cell bodies reference it.
struct RunState {
    const ResilienceOptions* res = nullptr;
    JournalWriter writer;
    std::unique_ptr<Watchdog> watchdog;
    Quarantine quarantine;
    FailureBreaker breaker;
    std::mutex report_mutex;
    TriageReport report;

    explicit RunState(const ResilienceOptions& options)
        : res(&options), breaker(options.breaker) {}

    /// True while this run journals at all.  Appends are routed through the
    /// writer even after it degrades (they count as records_dropped there) —
    /// gating on is_open() instead would hide the drop tally.
    bool journaling() const { return !res->journal_path.empty(); }

    void tally(CellOutcome outcome) {
        std::lock_guard<std::mutex> lock(report_mutex);
        ++report.counts[static_cast<std::size_t>(outcome)];
    }

    void note_quarantine(const CellKey& key, CellOutcome terminal, const std::string& detail) {
        std::lock_guard<std::mutex> lock(report_mutex);
        report.quarantine_details.push_back(key.to_string() + " [" +
                                            rfabm::exec::to_string(terminal) + "] " + detail);
    }
};

/// Journal a failed attempt so the budget survives a worker crash: the
/// resumed process charges these against max_cell_attempts.
void note_failed_attempt(RunState& state, const CellKey& key, std::uint32_t burned_total) {
    if (state.journaling()) state.writer.append_attempt(key, burned_total);
}

void run_cell(RunState& state, const ResilientCell& cell, std::uint32_t prior_attempts,
              TaskContext& ctx) {
    if (cell.optional && state.breaker.tripped()) {
        // Graceful degradation: the campaign is drowning in failures, shed
        // optional work so mandatory cells keep their wall-clock budget.
        // (Deferral already parked this cell past the mandatory sweep; a
        // breaker still tripped now means the campaign never recovered.)
        state.tally(CellOutcome::kShed);
        return;
    }

    // Attempts burned by previous incarnations of this process count against
    // the same budget; the caller quarantines cells that arrive exhausted.
    const int max_attempts = std::max(1, state.res->max_cell_attempts);
    const int budget = max_attempts - static_cast<int>(prior_attempts);
    CellComputeResult computed;
    bool got = false;
    CellOutcome last_fail = CellOutcome::kFailed;
    std::string detail;
    int attempts = 0;
    while (attempts < budget && !got) {
        if (ctx.token.stop_requested()) break;
        ++attempts;
        // Each attempt gets a private child source: the watchdog expires the
        // child's deadline without touching the campaign token, and a
        // campaign-wide cancel still stops the child through the parent link.
        std::atomic<std::uint64_t> beat{0};
        CancellationSource attempt_source(ctx.token);
        Watchdog::Guard guard(state.watchdog.get(), attempt_source, state.res->cell_timeout,
                              &beat);
        CellAttempt attempt{attempt_source.token(), &beat,
                            static_cast<int>(prior_attempts) + attempts - 1};
        try {
            computed = cell.compute(attempt);
            got = true;
        } catch (const circuit::ConvergenceError& e) {
            detail = e.what();
            state.breaker.record(false);
            note_failed_attempt(state, cell.key, prior_attempts + attempts);
            if (e.non_finite()) {
                // Deterministic arithmetic poison: a retry reruns the exact
                // same blow-up, so fail fast instead of burning attempts.
                last_fail = CellOutcome::kNonFinite;
                break;
            }
            last_fail = CellOutcome::kFailed;
        } catch (const std::exception& e) {
            detail = e.what();
            state.breaker.record(false);
            note_failed_attempt(state, cell.key, prior_attempts + attempts);
            const bool timed_out =
                attempt_source.token().deadline_expired() && !ctx.token.stop_requested();
            last_fail = timed_out ? CellOutcome::kTimedOut : CellOutcome::kFailed;
        }
    }

    if (got) {
        cell.deliver(computed.payload, computed.outcome, false);
        if (state.journaling()) {
            state.writer.append_cell(
                {cell.key, static_cast<std::uint32_t>(computed.outcome), computed.payload});
        }
        state.breaker.record(true);
        state.tally(computed.outcome);
        return;
    }

    if (ctx.token.stop_requested() && last_fail != CellOutcome::kNonFinite) {
        // Campaign-level cancel interrupted the attempts: the cell did not
        // genuinely exhaust its budget, so leave it unquarantined (the graph
        // accounting covers the shutdown).
        return;
    }

    // Attempt budget spent: quarantine.  The journal remembers, so a resumed
    // campaign does not burn time re-failing this cell.
    const std::uint32_t burned = prior_attempts + static_cast<std::uint32_t>(attempts);
    state.quarantine.add(cell.key, burned);
    if (state.journaling()) {
        state.writer.append_quarantine(cell.key, burned);
    }
    state.tally(last_fail);
    state.note_quarantine(cell.key, last_fail, detail);
}

}  // namespace

ResilientResult run_resilient_campaign(const std::vector<ResilientChain>& chains,
                                       const CampaignOptions& options,
                                       const ResilienceOptions& res, ThreadPool* pool) {
    auto state = std::make_shared<RunState>(res);
    TriageReport& report = state->report;
    for (const ResilientChain& chain : chains) report.cells_total += chain.cells.size();

    // 1. Replay the journal (resume only).  A journal carrying superseded
    // records — duplicate cells from merged shards, attempt tallies of cells
    // that since completed — is compacted in place first, so this replay and
    // every future one stays O(cells) instead of O(attempts).
    JournalReplay replay;
    bool orig_torn_tail = false;
    bool orig_checksum_mismatch = false;
    std::unordered_map<CellKey, const CellRecord*, CellKeyHash> replayed;
    std::unordered_map<CellKey, std::uint32_t, CellKeyHash> prior_attempts;
    if (!res.journal_path.empty() && res.resume) {
        replay = replay_journal(res.journal_path, res.campaign_id);
        orig_torn_tail = replay.torn_tail;
        orig_checksum_mismatch = replay.checksum_mismatch;
        if (replay.present && replay.superseded_records > 0 &&
            compact_journal(res.journal_path, res.campaign_id)) {
            replay = replay_journal(res.journal_path, res.campaign_id);
        }
        for (const CellRecord& record : replay.cells) replayed[record.key] = &record;
        for (const auto& [key, attempts] : replay.quarantined) {
            state->quarantine.add(key, attempts);
        }
        for (const auto& [key, attempts] : replay.attempts) prior_attempts[key] = attempts;
    }

    // 2. Open the journal for appending (truncating any torn tail).
    std::shared_ptr<CancellationSource> degrade_source;
    if (!res.journal_path.empty()) {
        JournalWriter::Options jopts;
        jopts.campaign_id = res.campaign_id;
        jopts.checkpoint_every = res.checkpoint_every;
        const bool open_ok =
            replay.present ? state->writer.open_resume(res.journal_path, jopts, replay.valid_bytes)
                           : state->writer.open_fresh(res.journal_path, jopts);
        if (open_ok && res.on_journal_open) res.on_journal_open(state->writer);
        if (open_ok && res.abort_on_journal_degraded) {
            // A degraded sharded worker's remaining results could never reach
            // the coordinator; cancel them so the rebalance starts sooner.
            // The child source keeps the campaign-wide token authoritative.
            degrade_source = std::make_shared<CancellationSource>(options.token);
            state->writer.set_degrade_hook([degrade_source] { degrade_source->cancel(); });
        }
    }

    if (res.cell_timeout.count() > 0 || res.watchdog.auto_tune) {
        state->watchdog = std::make_unique<Watchdog>(res.watchdog);
    }

    // 3. Deliver replayed cells and build the graph for the remainder.
    const int max_attempts = std::max(1, res.max_cell_attempts);
    std::uint64_t delivered_replays = 0;
    std::vector<DieChain> dies;
    for (const ResilientChain& chain : chains) {
        DieChain die;
        for (const ResilientCell& cell : chain.cells) {
            const auto it = replayed.find(cell.key);
            if (it != replayed.end()) {
                // Bit-exact replay into the cell's own result slot — this is
                // what makes a resumed campaign byte-identical.
                cell.deliver(it->second->payload,
                             static_cast<CellOutcome>(it->second->outcome), true);
                state->tally(CellOutcome::kReplayed);
                ++delivered_replays;
                continue;
            }
            if (state->quarantine.contains(cell.key)) {
                // Quarantined by a previous run; counted, never retried.
                state->tally(CellOutcome::kQuarantined);
                continue;
            }
            const auto pit = prior_attempts.find(cell.key);
            const std::uint32_t prior = pit != prior_attempts.end() ? pit->second : 0;
            if (prior >= static_cast<std::uint32_t>(max_attempts)) {
                // The budget was exhausted by previous incarnations (each
                // attempt crashed the process before a quarantine record
                // could land).  Quarantine now, without burning another run.
                state->quarantine.add(cell.key, prior);
                if (state->journaling()) state->writer.append_quarantine(cell.key, prior);
                state->tally(CellOutcome::kQuarantined);
                state->note_quarantine(cell.key, CellOutcome::kFailed,
                                       "attempt budget exhausted across restarts");
                continue;
            }
            die.measurements.push_back(
                {[state, &cell, prior](TaskContext& ctx) { run_cell(*state, cell, prior, ctx); },
                 cell.optional});
        }
        if (die.measurements.empty()) continue;  // fully satisfied: skip calibration too
        if (chain.calibrate) {
            die.calibrate = [calibrate = chain.calibrate](TaskContext& ctx) {
                try {
                    calibrate(ctx);
                } catch (const std::exception&) {
                    // Not fatal: downstream cells fail (and retry/quarantine)
                    // on their own terms instead of aborting the campaign.
                }
            };
        }
        dies.push_back(std::move(die));
    }

    // 4. Run what remains.  Optional cells are deferrable: while the breaker
    // is tripped the scheduler parks them so mandatory cells drain first —
    // and a breaker that recovers in the meantime lets the parked cells run
    // instead of being shed.
    CampaignOptions copts = options;
    if (!copts.defer_optional) {
        copts.defer_optional = [state] { return state->breaker.tripped(); };
    }
    if (degrade_source) copts.token = degrade_source->token();
    ResilientResult result;
    result.graph = run_campaign(dies, copts, pool);

    // 5. Assemble the report.
    state->writer.close();
    report.quarantined_cells = state->quarantine.cells();
    std::sort(report.quarantined_cells.begin(), report.quarantined_cells.end(),
              [](const auto& a, const auto& b) {
                  return std::tie(a.first.die, a.first.env, a.first.meas) <
                         std::tie(b.first.die, b.first.env, b.first.meas);
              });
    report.watchdog_fires = state->watchdog ? state->watchdog->fires() : 0;
    report.breaker_tripped = state->breaker.ever_tripped();
    report.journal = state->writer.stats();
    report.journal.records_replayed = delivered_replays;
    report.journal.torn_tail = orig_torn_tail || replay.torn_tail;
    report.journal.checksum_mismatch = orig_checksum_mismatch || replay.checksum_mismatch;
    report.journal.id_mismatch = replay.id_mismatch;
    if (options.metrics != nullptr && report.journal.degraded) {
        options.metrics->journal_degraded.fetch_add(1, std::memory_order_relaxed);
    }
    result.triage = std::move(report);
    return result;
}

}  // namespace rfabm::exec
