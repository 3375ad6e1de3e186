// rfabm_campaignd: sharded campaign coordinator with supervised workers.
//
// Partitions a synthetic (die x env) measurement campaign into --shards
// worker PROCESSES (fork/exec of this same binary in --worker mode), each
// writing its own write-ahead journal and heartbeating through an inherited
// pipe.  The coordinator (ShardSupervisor) detects crashed, hung and slow
// workers, restarts them with --worker-resume under a capped-backoff budget,
// and escalates to shedding optional work when the failure breaker trips.
// After the fleet drains, the shard journals are folded into one canonical
// campaign journal (merge_shard_journals) and the output is derived ONLY
// from that journal — which is what makes the bytes identical for any
// --shards/--jobs combination and any crash/restart history, including
// SIGKILLing the coordinator itself at the injectable crash points.
//
// When a shard exhausts its restart budget (or degrades because its journal
// disk refuses writes), the coordinator does not surface its unfinished dies
// as degraded output: it derives the missing cells from the durable journal
// prefixes (never from in-memory fleet state), deterministically re-partitions
// the affected dies onto recovery workers (rebalance journals
// "STEM.rebalK.wal", global monotonic K), and folds those journals into the
// same canonical merge — so even a give-up campaign converges on bytes
// identical to a clean single-process run.
//
//   rfabm_campaignd --journal STEM [--shards N] [--jobs J] [--resume]
//                   [--out FILE] [--dies D] [--envs E] [--cell-ms M]
//                   [--netlist FILE]       lint admission; errors exit 3
//                   [--program FILE]       flow-lint admission of the campaign
//                                          scan program (lint/flow); errors
//                                          exit 3 before dispatch.  The clean
//                                          verdict persists as an admission
//                                          ticket in STEM.lintcache, so each
//                                          worker re-admits with a hash lookup
//                   [--triage FILE]        write the coordinator TriageReport
//                                          JSON (incl. per-shard restart/
//                                          backoff/attempt history) to FILE
//                   [--surrogate FILE]     two-tier surrogate store in shadow
//                                          mode: every computed cell trains
//                                          per-shard stores (FILE.shardN),
//                                          hits are cross-checked against the
//                                          full compute within the published
//                                          error bound (a violation exits 4),
//                                          and the coordinator merges the
//                                          shard stores into FILE after the
//                                          fleet drains.  Journaled payloads
//                                          always come from the full compute,
//                                          so outputs stay byte-identical
//                                          with or without this flag
//                   [--poison D:E]         cell always fails -> quarantine
//                   [--optional-env E]     cells with env E are optional
//                   [--chaos SCHEDULE]     comma-separated compound fault
//                                          schedule, applied by coordinator
//                                          and workers alike:
//                                            kill:S@R[:xN]  SIGKILL shard S at
//                                                           its Rth journal
//                                                           append, on its
//                                                           first N launches
//                                                           (default 1)
//                                            hang:S         shard S stalls
//                                                           (first launch)
//                                            disk-full:S@R  shard S's journal
//                                                           disk returns
//                                                           ENOSPC from
//                                                           record R on
//                                            disk-eio:S@R   ... EIO
//                                            disk-short:S@R ... short write
//                                            corrupt-tail:S shard S's journal
//                                                           tail is stomped on
//                                                           its first restart
//                                            rkill:K@R      SIGKILL rebalance
//                                                           worker K at
//                                                           record R
//                                            rdisk-full:K@R rebalance worker
//                                                           K's disk fills at
//                                                           record R
//                                            store-full:S   shard S's
//                                                           surrogate store
//                                                           save hits ENOSPC
//                                            coord:P        SIGKILL the
//                                                           coordinator at P
//                                          P: pre-dispatch, post-workers,
//                                          pre-rebalance, post-rebalance,
//                                          mid-publish (inside the merge
//                                          temp+rename window: the merged temp
//                                          is durable but not yet renamed),
//                                          post-merge
//                   [--breaker-window N] [--breaker-min N]
//                                          supervisor failure-breaker knobs
//                   [--max-restarts R] [--watchdog-ms M] [--max-attempts A]
//
// Exit: 0 every cell completed; 1 campaign finished degraded (quarantined /
// given-up cells); 2 usage or I/O error; 3 netlist or scan program rejected
// by lint; 4 surrogate parity violation (a served value disagreed with the
// full compute by more than the surface's published error bound).  Workers
// exit 6 (internal) when their journal degraded — the supervisor rebalances
// instead of restarting.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/calibration_cache.hpp"
#include "exec/metrics.hpp"
#include "exec/resilient.hpp"
#include "exec/shard.hpp"
#include "exec/supervisor.hpp"
#include "faults/process_faults.hpp"
#include "lint/flow/cache.hpp"
#include "lint/flow/parser.hpp"
#include "lint/netlist_lint.hpp"
#include "rf/surrogate/store.hpp"

namespace {

using namespace rfabm;

/// Worker exit code meaning "journal degraded" (see ShardSupervisor::Options
/// ::degraded_exit_code).  Internal: never surfaced as a campaign exit.
constexpr int kExitJournalDegraded = 6;
/// Rebalance passes per campaign before the coordinator accepts degradation.
constexpr std::uint32_t kMaxRebalanceRounds = 3;
/// Probe ceiling for pre-existing rebalance journals on coordinator resume.
constexpr std::uint32_t kMaxRebalanceJournals = 64;

/// One parsed --chaos event.
struct ChaosEvent {
    enum class Kind {
        kKill,         ///< kill:S@R[:xN], rkill:K@R[:xN] — SIGKILL at journal record R
        kHang,         ///< hang:S — shard S stalls silently (first launch)
        kDisk,         ///< disk-full|disk-eio|disk-short:S@R, rdisk-full:K@R
        kCorruptTail,  ///< corrupt-tail:S — stomp journal tail on first restart
        kStoreFull,    ///< store-full:S — surrogate save hits ENOSPC
        kCoord,        ///< coord:P — coordinator crash point P
    };
    Kind kind = Kind::kKill;
    /// rkill / rdisk-full: the target is a global rebalance journal index,
    /// not a primary shard.
    bool rebalance = false;
    std::int64_t target = -1;
    std::uint64_t record = 0;
    int launches = 1;  ///< kKill: apply while attempt < launches
    faults::JournalDiskFault::Mode disk = faults::JournalDiskFault::Mode::kEnospc;
    std::string coord_point;  ///< kCoord only
};

struct Args {
    std::string journal_stem;
    std::string out;
    std::string netlist;
    std::string program;     ///< flow-lint admission input (empty: skip)
    std::string triage_out;  ///< coordinator triage JSON path (empty: skip)
    std::string surrogate;   ///< merged surrogate store path (empty: no tier)
    std::uint32_t shards = 1;
    std::size_t jobs = 1;
    std::uint32_t dies = 4;
    std::uint32_t envs = 4;
    int cell_ms = 0;
    int max_attempts = 2;
    int max_restarts = 5;
    int watchdog_ms = 0;  // 0: auto-tune from heartbeat cadence
    bool resume = false;
    std::int64_t poison_die = -1, poison_env = -1;
    std::int64_t optional_env = -1;
    std::string chaos;  ///< raw schedule, forwarded verbatim to workers
    std::vector<ChaosEvent> chaos_events;
    int breaker_window = 0;  ///< 0: supervisor default
    int breaker_min = 0;     ///< 0: supervisor default
    // Worker mode.
    bool worker = false;
    bool worker_resume = false;
    bool shed_optional = false;
    std::uint32_t shard_index = 0;
    int heartbeat_fd = -1;
    int attempt = 0;  ///< this launch's 0-based attempt (chaos kill keying)
    // Rebalance-worker mode.
    std::string rebalance_dies;     ///< CSV of dies re-homed onto this worker
    std::int64_t rebal_index = -1;  ///< global rebalance journal index
};

bool parse_pair(const char* s, std::int64_t* a, std::uint64_t* b) {
    char* end = nullptr;
    *a = std::strtoll(s, &end, 10);
    if (end == nullptr || *end != ':') return false;
    *b = std::strtoull(end + 1, nullptr, 10);
    return true;
}

/// Parse one "S@R" target@record operand.  @p rest may carry a ":xN" launch
/// multiplier (kill only).
bool parse_at(const std::string& s, std::int64_t* target, std::uint64_t* record,
              int* launches) {
    const std::size_t at = s.find('@');
    if (at == std::string::npos) return false;
    *target = std::strtoll(s.substr(0, at).c_str(), nullptr, 10);
    std::string rest = s.substr(at + 1);
    const std::size_t x = rest.find(":x");
    if (x != std::string::npos) {
        if (launches == nullptr) return false;
        *launches = std::atoi(rest.substr(x + 2).c_str());
        if (*launches < 1) return false;
        rest = rest.substr(0, x);
    }
    *record = std::strtoull(rest.c_str(), nullptr, 10);
    return *record > 0;
}

/// Parse a --chaos schedule ("kill:1@2:x3,disk-full:0@4,coord:post-workers").
bool parse_chaos(const std::string& schedule, std::vector<ChaosEvent>* events) {
    std::stringstream ss(schedule);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty()) continue;
        const std::size_t colon = item.find(':');
        if (colon == std::string::npos) return false;
        const std::string op = item.substr(0, colon);
        const std::string rest = item.substr(colon + 1);
        ChaosEvent ev;
        using K = ChaosEvent::Kind;
        using Mode = faults::JournalDiskFault::Mode;
        ev.rebalance = op == "rkill" || op == "rdisk-full";
        if (op == "kill" || op == "rkill") {
            ev.kind = K::kKill;
            if (!parse_at(rest, &ev.target, &ev.record, &ev.launches)) return false;
        } else if (op == "disk-full" || op == "rdisk-full" || op == "disk-eio" ||
                   op == "disk-short") {
            ev.kind = K::kDisk;
            ev.disk = op == "disk-eio"     ? Mode::kEio
                      : op == "disk-short" ? Mode::kShortWrite
                                           : Mode::kEnospc;
            if (!parse_at(rest, &ev.target, &ev.record, nullptr)) return false;
        } else if (op == "hang" || op == "corrupt-tail" || op == "store-full") {
            ev.kind = op == "hang"           ? K::kHang
                      : op == "corrupt-tail" ? K::kCorruptTail
                                             : K::kStoreFull;
            ev.target = std::strtoll(rest.c_str(), nullptr, 10);
        } else if (op == "coord") {
            ev.kind = K::kCoord;
            ev.coord_point = rest;
        } else {
            return false;
        }
        events->push_back(std::move(ev));
    }
    return true;
}

bool parse_args(int argc, char** argv, Args* args) {
    for (int i = 1; i < argc; ++i) {
        const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        const char* a = argv[i];
        const char* v = nullptr;
        if (std::strcmp(a, "--journal") == 0 && (v = next())) args->journal_stem = v;
        else if (std::strcmp(a, "--out") == 0 && (v = next())) args->out = v;
        else if (std::strcmp(a, "--netlist") == 0 && (v = next())) args->netlist = v;
        else if (std::strcmp(a, "--program") == 0 && (v = next())) args->program = v;
        else if (std::strcmp(a, "--triage") == 0 && (v = next())) args->triage_out = v;
        else if (std::strcmp(a, "--surrogate") == 0 && (v = next())) args->surrogate = v;
        else if (std::strcmp(a, "--shards") == 0 && (v = next()))
            args->shards = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
        else if (std::strcmp(a, "--jobs") == 0 && (v = next()))
            args->jobs = std::strtoull(v, nullptr, 10);
        else if (std::strcmp(a, "--dies") == 0 && (v = next()))
            args->dies = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
        else if (std::strcmp(a, "--envs") == 0 && (v = next()))
            args->envs = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
        else if (std::strcmp(a, "--cell-ms") == 0 && (v = next()))
            args->cell_ms = std::atoi(v);
        else if (std::strcmp(a, "--max-attempts") == 0 && (v = next()))
            args->max_attempts = std::atoi(v);
        else if (std::strcmp(a, "--max-restarts") == 0 && (v = next()))
            args->max_restarts = std::atoi(v);
        else if (std::strcmp(a, "--watchdog-ms") == 0 && (v = next()))
            args->watchdog_ms = std::atoi(v);
        else if (std::strcmp(a, "--resume") == 0) args->resume = true;
        else if (std::strcmp(a, "--poison") == 0 && (v = next())) {
            std::uint64_t env = 0;
            if (!parse_pair(v, &args->poison_die, &env)) return false;
            args->poison_env = static_cast<std::int64_t>(env);
        } else if (std::strcmp(a, "--optional-env") == 0 && (v = next()))
            args->optional_env = std::atoll(v);
        else if (std::strcmp(a, "--chaos") == 0 && (v = next())) args->chaos = v;
        else if (std::strcmp(a, "--breaker-window") == 0 && (v = next()))
            args->breaker_window = std::atoi(v);
        else if (std::strcmp(a, "--breaker-min") == 0 && (v = next()))
            args->breaker_min = std::atoi(v);
        else if (std::strcmp(a, "--worker") == 0) args->worker = true;
        else if (std::strcmp(a, "--worker-resume") == 0) args->worker_resume = true;
        else if (std::strcmp(a, "--shed-optional") == 0) args->shed_optional = true;
        else if (std::strcmp(a, "--shard") == 0 && (v = next()))
            args->shard_index = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
        else if (std::strcmp(a, "--heartbeat-fd") == 0 && (v = next()))
            args->heartbeat_fd = std::atoi(v);
        else if (std::strcmp(a, "--attempt") == 0 && (v = next())) args->attempt = std::atoi(v);
        else if (std::strcmp(a, "--rebalance-dies") == 0 && (v = next()))
            args->rebalance_dies = v;
        else if (std::strcmp(a, "--rebal-index") == 0 && (v = next()))
            args->rebal_index = std::atoll(v);
        else return false;
    }
    if (!args->chaos.empty() && !parse_chaos(args->chaos, &args->chaos_events)) return false;
    return !args->journal_stem.empty() && args->shards >= 1 && args->dies >= 1 &&
           args->envs >= 1;
}

/// Identity of the campaign CONTENT: everything that affects journaled
/// records — and nothing about the execution topology (shards, jobs, crash
/// injection, pacing), so journals written by any shard of any run of the
/// same campaign merge and resume across topologies.
std::uint64_t campaign_identity(const Args& args) {
    exec::FieldHasher h;
    h.mix(std::uint64_t{0x1149'0006});
    h.mix(args.dies).mix(args.envs);
    h.mix(static_cast<std::uint64_t>(args.max_attempts));
    h.mix(static_cast<std::uint64_t>(args.poison_die + 1));
    h.mix(static_cast<std::uint64_t>(args.poison_env + 1));
    h.mix(static_cast<std::uint64_t>(args.optional_env + 1));
    return h.value();
}

std::string campaign_journal_path(const Args& args) { return args.journal_stem + ".wal"; }

std::vector<double> synth_payload(std::uint32_t die, std::uint32_t env) {
    const double a = std::sin(0.7 * die + 0.3) * std::cos(1.1 * env + 0.5);
    return {a, std::exp(-a * a), a / (1.0 + die + env)};
}

/// Shadow-mode surrogate knobs: one surface per payload COMPONENT over the
/// (die, env) grid, served purely for cross-checking (max_bound disabled —
/// honesty is judged against the published bound, not an extra budget).
rf::surrogate::StoreOptions shadow_store_options() {
    rf::surrogate::StoreOptions sopts;
    sopts.max_bound = 0.0;
    sopts.refit_min_samples = 12;  // small synthetic grids still train
    return sopts;
}

/// Serve-and-verify one computed cell against the shadow store, then feed the
/// computed truth back in.  Serving happens only when @p serve — i.e. the
/// store holds a COMPLETED generation (loaded from a save, which always
/// refits over its full population): a surface still mid-training would be
/// queried at freshly-extended envelope corners its cross-validation never
/// measured.  Returns the number of parity violations (served values
/// disagreeing with the full compute beyond the published bound).
std::uint64_t shadow_check_and_observe(rf::surrogate::SurrogateStore& store, bool serve,
                                       std::uint32_t die, std::uint32_t env,
                                       const std::vector<double>& payload) {
    std::uint64_t violations = 0;
    for (std::size_t c = 0; c < payload.size(); ++c) {
        const rf::surrogate::SurrogateKey key{
            static_cast<std::uint32_t>(rf::surrogate::Quantity::kCustom),
            static_cast<std::uint64_t>(c), 0};
        const rf::surrogate::Query q{static_cast<double>(die), static_cast<double>(env), 0.0};
        double served = 0.0;
        double bound = 0.0;
        if (serve &&
            store.try_serve(key, q, &served, &bound) == rf::surrogate::Decision::kHit &&
            std::fabs(served - payload[c]) > bound + 1e-12) {
            ++violations;
            std::fprintf(stderr,
                         "[campaignd] surrogate PARITY violation at die %" PRIu32 " env %" PRIu32
                         " component %zu: served %.17g vs computed %.17g, bound %.3g\n",
                         die, env, c, served, payload[c], bound);
        }
        store.observe(key, q, payload[c]);
    }
    return violations;
}

/// The part of the campaign one process runs: the whole grid for the inline
/// --shards 1 path, one shard's dies in worker mode, or — for a rebalance
/// worker — the re-homed dies limited to the cells the durable journals are
/// still missing.
struct Slice {
    std::vector<exec::CellKey> cells;  ///< die-major
    std::string journal;
    bool resume = false;
    std::vector<ChaosEvent> chaos;  ///< the --chaos events aimed at this slice

    bool has(ChaosEvent::Kind kind) const {
        return std::any_of(chaos.begin(), chaos.end(),
                           [kind](const ChaosEvent& ev) { return ev.kind == kind; });
    }
};

/// The --chaos events aimed at primary shard @p target or, when
/// @p rebalance, at rebalance journal index @p target.
std::vector<ChaosEvent> chaos_aimed_at(const Args& args, bool rebalance, std::int64_t target) {
    std::vector<ChaosEvent> aimed;
    for (const ChaosEvent& ev : args.chaos_events) {
        if (ev.rebalance == rebalance && ev.target == target) aimed.push_back(ev);
    }
    return aimed;
}

/// Every cell of the dies in shard @p index of @p count.
Slice shard_slice(const Args& args, std::uint32_t index, std::uint32_t count,
                  std::string journal, bool resume) {
    Slice slice{{}, std::move(journal), resume, chaos_aimed_at(args, false, index)};
    for (std::uint32_t d = 0; d < args.dies; ++d) {
        if (exec::shard_of_die(d, count) != index) continue;
        for (std::uint32_t e = 0; e < args.envs; ++e) slice.cells.push_back({d, e, 0});
    }
    return slice;
}

std::vector<std::uint32_t> parse_die_csv(const std::string& csv) {
    std::vector<std::uint32_t> dies;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty()) {
            dies.push_back(static_cast<std::uint32_t>(std::strtoul(item.c_str(), nullptr, 10)));
        }
    }
    return dies;
}

std::string join_die_csv(const std::vector<std::uint32_t>& dies) {
    std::string csv;
    for (const std::uint32_t d : dies) {
        if (!csv.empty()) csv += ',';
        csv += std::to_string(d);
    }
    return csv;
}

/// Every journal this campaign may have persisted: one per primary shard
/// plus every rebalance journal present on disk (probed up to the ceiling).
/// @p skip_rebal excludes a recovery worker's OWN journal, so its previous
/// incarnation's cells are served by its resume replay — not double-counted
/// as already done by the planner.
std::vector<std::string> durable_journals(const Args& args, std::int64_t skip_rebal) {
    std::vector<std::string> inputs;
    for (std::uint32_t s = 0; s < args.shards; ++s) {
        inputs.push_back(exec::shard_journal_path(args.journal_stem, s));
    }
    for (std::uint32_t k = 0; k < kMaxRebalanceJournals; ++k) {
        if (static_cast<std::int64_t>(k) == skip_rebal) continue;
        const std::string path = exec::rebalance_journal_path(args.journal_stem, k);
        std::uint64_t id = 0;
        if (exec::read_journal_id(path, &id)) inputs.push_back(path);
    }
    return inputs;
}

/// Recovery worker: whatever the durable journals are still missing from
/// the re-homed die list, journaling into "<stem>.rebal<K>.wal".  Both the
/// die list and the missing-cell set re-derive from on-disk state, so a
/// SIGKILLed-and-relaunched recovery worker converges on identical records.
/// False when the worker was launched without dies or journal index.
bool rebalance_slice(const Args& args, Slice* slice) {
    const std::vector<std::uint32_t> dies = parse_die_csv(args.rebalance_dies);
    if (dies.empty() || args.rebal_index < 0) return false;
    const std::unordered_set<std::uint32_t> die_set(dies.begin(), dies.end());
    *slice = Slice{{},
                   exec::rebalance_journal_path(args.journal_stem,
                                                static_cast<std::uint32_t>(args.rebal_index)),
                   args.worker_resume,
                   chaos_aimed_at(args, true, args.rebal_index)};
    for (const exec::CellKey& key :
         exec::missing_cells(durable_journals(args, args.rebal_index), campaign_identity(args),
                             args.dies, args.envs)) {
        if (die_set.count(key.die) != 0) slice->cells.push_back(key);
    }
    return true;
}

/// The slice's cells as one resilient chain: the synthetic cells need no
/// calibration, so die boundaries do not matter to the scheduler.  Optional
/// cells are dropped when the breaker escalated this launch to shedding.
std::vector<exec::ResilientChain> build_chains(
    const Args& args, const Slice& slice, bool hang_here, exec::HeartbeatEmitter& heartbeat,
    std::atomic<std::uint64_t>& computed, rf::surrogate::SurrogateStore* shadow,
    bool shadow_serve, std::atomic<std::uint64_t>& parity_failures) {
    exec::ResilientChain chain;
    for (const exec::CellKey& key : slice.cells) {
        const std::uint32_t d = key.die;
        const std::uint32_t e = key.env;
        const bool optional =
            args.optional_env >= 0 && e == static_cast<std::uint32_t>(args.optional_env);
        if (optional && args.shed_optional) continue;  // breaker escalation
        exec::ResilientCell cell;
        cell.key = key;
        cell.optional = optional;
        const bool poisoned = static_cast<std::int64_t>(d) == args.poison_die &&
                              static_cast<std::int64_t>(e) == args.poison_env;
        cell.compute = [d, e, poisoned, hang_here, &args, &computed, shadow, shadow_serve,
                        &parity_failures](const exec::CellAttempt& attempt) {
            if (args.cell_ms > 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(args.cell_ms));
            }
            if (poisoned) throw std::runtime_error("poisoned cell");
            // A hang: the worker goes silent AFTER journaling some cells
            // (the supervisor must SIGKILL it and the restart resumes).
            if (hang_here && computed.load(std::memory_order_relaxed) >= 2) {
                for (;;) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(50));
                    if (attempt.token.stop_requested()) {
                        throw std::runtime_error("hang interrupted");
                    }
                }
            }
            exec::CellComputeResult result;
            result.payload = synth_payload(d, e);
            // Shadow serving: the journaled payload is ALWAYS the full
            // compute; a hit is only cross-checked against it so a
            // dishonest bound is caught, never propagated.
            if (shadow != nullptr) {
                const std::uint64_t bad =
                    shadow_check_and_observe(*shadow, shadow_serve, d, e, result.payload);
                if (bad > 0) parity_failures.fetch_add(bad, std::memory_order_relaxed);
            }
            return result;
        };
        cell.deliver = [&heartbeat, &computed](const std::vector<double>&, exec::CellOutcome,
                                               bool replayed) {
            if (!replayed) computed.fetch_add(1, std::memory_order_relaxed);
            heartbeat.beat();
        };
        chain.cells.push_back(std::move(cell));
    }
    return {std::move(chain)};
}

/// Stomp the last 8 bytes of @p path with 0xFF — bit rot on the journal tail.
/// The resume replay must reject the corrupted record's checksum, truncate,
/// and recompute only that cell.  No-op on files too small to hold a record.
void corrupt_journal_tail(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    if (f == nullptr) return;
    std::fseek(f, 0, SEEK_END);
    if (std::ftell(f) > 28 && std::fseek(f, -8, SEEK_END) == 0) {
        const unsigned char junk[8] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
        std::fwrite(junk, 1, sizeof junk, f);
    }
    std::fclose(f);
}

/// Run one campaign slice in this process: the inline --shards 1 path, a
/// primary shard worker or a recovery worker.  The shadow surrogate tier and
/// optional-cell shedding follow the flags this process was launched with;
/// recovery workers get neither, because they exist to close the cell set,
/// including optional cells a tripped breaker shed.
int run_slice(const Args& args, const Slice& slice, exec::TriageReport* triage_out = nullptr,
              exec::CampaignMetrics* metrics = nullptr) {
    using K = ChaosEvent::Kind;
    exec::HeartbeatEmitter heartbeat(args.heartbeat_fd);
    heartbeat.beat();
    std::atomic<std::uint64_t> computed{0};
    // Chaos: a restarting worker may find its journal tail rotted (torn
    // sector, bit flip).  Stomp it on the FIRST restart only — replay must
    // truncate the bad record and the resumed run recomputes just that cell.
    if (slice.resume && args.attempt == 1 && slice.has(K::kCorruptTail)) {
        corrupt_journal_tail(slice.journal);
    }
    // Shadow surrogate tier: load the previous generation (kill-and-resume
    // runs keep sharpening one store), cross-check hits while the campaign
    // runs, persist the refreshed store after it drains.
    std::unique_ptr<rf::surrogate::SurrogateStore> shadow;
    std::atomic<std::uint64_t> parity_failures{0};
    std::string shadow_path;
    bool shadow_serve = false;
    if (!args.surrogate.empty()) {
        shadow = std::make_unique<rf::surrogate::SurrogateStore>(shadow_store_options());
        shadow_path = args.shards == 1
                          ? args.surrogate
                          : exec::shard_surrogate_path(args.surrogate, args.shard_index);
        (void)shadow->load(shadow_path);  // rejected/missing: starts empty, refits
        // Serve (and parity-check) only from a completed generation: a saved
        // store was refit over its full population, so every grid query is an
        // in-sample point whose residual the published bound covers.
        shadow_serve = shadow->surfaces() > 0;
        // Chaos: this shard's surrogate persistence hits ENOSPC.  Save fails,
        // the previous store generation survives, the campaign (and its
        // journaled bytes) must be unaffected.
        if (slice.has(K::kStoreFull)) {
            shadow->set_disk_fault_hook([](const char* op) {
                return std::strcmp(op, "write") == 0 ? ENOSPC : 0;
            });
        }
    }
    const bool hang_here = args.attempt == 0 && slice.has(K::kHang);
    const std::vector<exec::ResilientChain> chains =
        build_chains(args, slice, hang_here, heartbeat, computed, shadow.get(), shadow_serve,
                     parity_failures);

    exec::CampaignOptions copts;
    copts.jobs = args.jobs;
    copts.metrics = metrics;
    exec::ResilienceOptions ropts;
    ropts.journal_path = slice.journal;
    ropts.resume = slice.resume;
    ropts.campaign_id = campaign_identity(args);
    ropts.checkpoint_every = 1;  // every record durable: crashes stay deterministic
    ropts.max_cell_attempts = args.max_attempts;
    if (args.watchdog_ms > 0) {
        ropts.cell_timeout = std::chrono::milliseconds(args.watchdog_ms);
    }
    // A worker's results reach the coordinator only through its journal, so
    // once the journal degrades the remaining compute is wasted — exit early
    // (code 6) and let the coordinator rebalance from the durable prefix.
    // The inline single-process path keeps running and finishes in memory.
    ropts.abort_on_journal_degraded = args.worker;
    std::vector<std::unique_ptr<faults::FaultInjector>> injected;
    ropts.on_journal_open = [&](exec::JournalWriter& writer) {
        for (const ChaosEvent& ev : slice.chaos) {
            if (ev.kind == K::kKill && args.attempt < ev.launches) {
                injected.push_back(std::make_unique<faults::CrashPointFault>(writer, ev.record));
            } else if (ev.kind == K::kDisk) {
                injected.push_back(
                    std::make_unique<faults::JournalDiskFault>(writer, ev.record, ev.disk));
            }
        }
        for (auto& fault : injected) fault->arm();
    };
    // The injected hooks live on the run's journal writer, which dies when
    // the run returns: there is nothing left to disarm afterwards.
    const exec::ResilientResult result = exec::run_resilient_campaign(chains, copts, ropts);
    if (triage_out != nullptr) *triage_out = result.triage;
    // Degraded worker: report through the reserved exit code.  Nothing else
    // this process could persist matters — the supervisor gives the shard up
    // at once and the coordinator rebalances its cells.
    if (args.worker && result.triage.journal.degraded) {
        std::fprintf(stderr,
                     "[campaignd] journal %s degraded (%" PRIu64 " write failure(s), %" PRIu64
                     " record(s) in memory only); requesting rebalance\n",
                     slice.journal.c_str(), result.triage.journal.write_failures,
                     result.triage.journal.records_dropped);
        return kExitJournalDegraded;
    }

    if (shadow) {
        // Close the generation: refit every surface over the full retained
        // population (merge_from with no inputs is exactly that), so the
        // saved store serves the next run from complete surfaces.
        shadow->merge_from({});
        if (!shadow->save(shadow_path)) {
            // Non-fatal by design: the surrogate tier is an accelerator, the
            // journal is the source of truth.  The previous store generation
            // (if any) keeps serving; triage records the refusal.
            std::fprintf(stderr,
                         "rfabm_campaignd: cannot persist surrogate store %s "
                         "(previous generation kept)\n",
                         shadow_path.c_str());
        }
        if (triage_out != nullptr) triage_out->surrogate = exec::surrogate_stats(*shadow);
        if (parity_failures.load(std::memory_order_relaxed) > 0) {
            std::fprintf(stderr,
                         "rfabm_campaignd: %" PRIu64 " surrogate parity violation(s)\n",
                         parity_failures.load(std::memory_order_relaxed));
            return 4;
        }
    }

    const std::uint64_t accounted = result.triage.count(exec::CellOutcome::kOk) +
                                    result.triage.count(exec::CellOutcome::kReplayed) +
                                    result.triage.count(exec::CellOutcome::kQuarantined) +
                                    result.triage.count(exec::CellOutcome::kDegraded) +
                                    result.triage.count(exec::CellOutcome::kShed);
    return accounted == result.triage.cells_total ? 0 : 1;
}

/// A recovery worker's assignment: its re-homed dies and its global
/// rebalance journal index.
struct Rehome {
    std::string dies_csv;
    std::uint32_t index = 0;
};

/// Fork/exec this binary as the worker for @p launch: primary shard
/// launch.shard or, with @p rehome, a recovery worker.  The heartbeat fd is
/// inherited (no CLOEXEC on the pipe's write end).  The surrogate tier and
/// optional-cell shedding are forwarded to primary shards only (see
/// run_slice).
pid_t spawn_worker(const Args& args, const char* self,
                   const exec::ShardSupervisor::Launch& launch,
                   const Rehome* rehome = nullptr) {
    std::vector<std::string> argstrs = {
        self, "--worker",
        "--journal", args.journal_stem,
        "--shards", std::to_string(args.shards),
        "--shard", std::to_string(launch.shard),
        "--jobs", std::to_string(args.jobs),
        "--dies", std::to_string(args.dies),
        "--envs", std::to_string(args.envs),
        "--cell-ms", std::to_string(args.cell_ms),
        "--max-attempts", std::to_string(args.max_attempts),
        "--heartbeat-fd", std::to_string(launch.heartbeat_fd),
        "--attempt", std::to_string(launch.attempt),
    };
    const auto add = [&argstrs](const char* flag, std::string value) {
        argstrs.push_back(flag);
        argstrs.push_back(std::move(value));
    };
    if (rehome != nullptr) {
        add("--rebalance-dies", rehome->dies_csv);
        add("--rebal-index", std::to_string(rehome->index));
    } else {
        if (launch.shed_optional) argstrs.push_back("--shed-optional");
        if (!args.surrogate.empty()) add("--surrogate", args.surrogate);
    }
    if (launch.resume) argstrs.push_back("--worker-resume");
    if (!args.chaos.empty()) add("--chaos", args.chaos);
    if (!args.program.empty()) add("--program", args.program);
    if (args.poison_die >= 0) {
        add("--poison", std::to_string(args.poison_die) + ":" + std::to_string(args.poison_env));
    }
    if (args.optional_env >= 0) add("--optional-env", std::to_string(args.optional_env));
    std::vector<char*> argv;
    argv.reserve(argstrs.size() + 1);
    for (std::string& s : argstrs) argv.push_back(s.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid != 0) return pid;
    ::execv(self, argv.data());
    std::_Exit(127);  // exec failed; never run the coordinator's atexit state
}

bool coord_point_requested(const Args& args, const char* point) {
    return std::any_of(args.chaos_events.begin(), args.chaos_events.end(),
                       [point](const ChaosEvent& ev) {
                           return ev.kind == ChaosEvent::Kind::kCoord && ev.coord_point == point;
                       });
}

void coord_crash_point(const Args& args, const char* point) {
    if (coord_point_requested(args, point)) std::raise(SIGKILL);
}

/// Flow-lint admission of the campaign scan program (--program).  The clean
/// verdict persists as an admission ticket in STEM.lintcache, so the workers
/// (and any resumed coordinator) re-admit the unchanged program with one
/// hash lookup instead of re-interpreting it.  Returns 0 (admitted) or 3.
int admit_program(const Args& args, bool is_worker) {
    lint::flow::CampaignProgram program;
    lint::Report report;
    lint::flow::FlowLintCache cache;
    const std::string cache_path = args.journal_stem + ".lintcache";
    cache.load(cache_path);
    if (lint::flow::parse_program_file(args.program, program, report)) {
        cache.admit(program, report);
    }
    if (report.has_errors()) {
        report.sort();
        std::fprintf(stderr, "%s", report.to_text().c_str());
        std::fprintf(stderr,
                     is_worker
                         ? "rfabm_campaignd: worker refused flow-rejected scan program\n"
                         : "rfabm_campaignd: scan program rejected by flow lint, campaign "
                           "not dispatched\n");
        return 3;
    }
    if (!is_worker) cache.save(cache_path);
    return 0;
}

int run_coordinator(const Args& args, const char* self) {
    // Lint admission: a campaign whose netlist fails static analysis is
    // rejected BEFORE any shard is dispatched — no worker is ever spawned
    // for a program that cannot run.
    if (!args.netlist.empty()) {
        std::ifstream in(args.netlist);
        if (!in) {
            std::fprintf(stderr, "rfabm_campaignd: cannot read %s\n", args.netlist.c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        lint::Report report;
        lint::lint_netlist(text.str(), args.netlist, report);
        if (report.has_errors()) {
            report.sort();
            std::fprintf(stderr, "%s", report.to_text().c_str());
            std::fprintf(stderr, "rfabm_campaignd: netlist rejected, campaign not dispatched\n");
            return 3;
        }
    }
    // Flow admission: the campaign's scan-program sequence is symbolically
    // executed before any shard is dispatched.  Zero cells run on a program
    // with a crowbar window, bus contention, or an unpowered read in it.
    if (!args.program.empty()) {
        const int rc = admit_program(args, /*is_worker=*/false);
        if (rc != 0) return rc;
    }
    coord_crash_point(args, "pre-dispatch");

    // Coordinator SIGKILL inside the merge/compaction publish window (merged
    // temp durable, rename pending): the previous canonical generation must
    // survive, and a --resume re-merge must converge byte-identically.
    if (coord_point_requested(args, "mid-publish")) {
        exec::set_merge_publish_hook([](const std::string&) { std::raise(SIGKILL); });
    }

    exec::TriageReport triage;
    exec::CampaignMetrics metrics;
    bool degraded = false;
    if (args.shards == 1) {
        // Inline: no worker processes.  The journal is still compacted at
        // the end — folding attempt records and rewriting in canonical
        // order — so its bytes match a merged multi-shard run.
        const int rc =
            run_slice(args, shard_slice(args, 0, 1, campaign_journal_path(args), args.resume),
                      &triage, &metrics);
        if (rc > 1) return rc;
        degraded = rc != 0;
        coord_crash_point(args, "post-workers");
        if (!exec::compact_journal(campaign_journal_path(args), campaign_identity(args))) {
            std::fprintf(stderr, "rfabm_campaignd: journal compaction failed\n");
            return 2;
        }
    } else {
        exec::ShardSupervisor::Options sopts;
        sopts.max_restarts = args.max_restarts;
        if (args.watchdog_ms > 0) {
            sopts.heartbeat_timeout = std::chrono::milliseconds(args.watchdog_ms);
        }
        sopts.resume_first = args.resume;
        // Exit 6 = "my journal disk died, I finished in memory": restarting
        // against the same disk cannot help, so the supervisor gives the
        // shard up at once and the rebalance pass below re-homes its dies.
        sopts.degraded_exit_code = kExitJournalDegraded;
        if (args.breaker_window > 0) {
            sopts.breaker.window = static_cast<std::size_t>(args.breaker_window);
        }
        if (args.breaker_min > 0) {
            sopts.breaker.min_samples = static_cast<std::size_t>(args.breaker_min);
        }
        sopts.on_event = [](const exec::ShardSupervisor::Event& event) {
            const char* kind = "?";
            using EK = exec::ShardSupervisor::EventKind;
            switch (event.kind) {
                case EK::kLaunch: kind = "launch"; break;
                case EK::kComplete: kind = "complete"; break;
                case EK::kCrash: kind = "crash"; break;
                case EK::kHang: kind = "hang"; break;
                case EK::kSlow: kind = "slow"; break;
                case EK::kGiveUp: kind = "give-up"; break;
                case EK::kBreakerTrip: kind = "breaker-trip"; break;
                case EK::kJournalDegraded: kind = "journal-degraded"; break;
            }
            std::fprintf(stderr, "[campaignd] shard %u attempt %d: %s %s\n", event.shard,
                         event.attempt, kind, event.detail.c_str());
        };
        exec::ShardSupervisor supervisor(sopts);
        const exec::ShardSupervisor::Result fleet = supervisor.supervise(
            args.shards, [&](const exec::ShardSupervisor::Launch& launch) {
                return spawn_worker(args, self, launch);
            });
        triage.breaker_tripped = fleet.breaker_tripped;
        triage.shards = exec::shard_histories(fleet);
        for (const auto& worker : fleet.workers) {
            if (worker.journal_degraded) {
                metrics.journal_degraded.fetch_add(1, std::memory_order_relaxed);
            }
        }
        coord_crash_point(args, "post-workers");

        // --- dynamic rebalance -------------------------------------------
        // Ground truth is the durable journal record, never in-memory fleet
        // state: fold every on-disk journal and re-home whatever grid cells
        // are still unaccounted for onto recovery workers.  Bounded rounds;
        // each round mints fresh journal indices, so a coordinator crash
        // anywhere in here resumes without ever reusing a torn journal.
        std::uint32_t next_rebal = 0;
        for (std::uint32_t k = 0; k < kMaxRebalanceJournals; ++k) {
            std::uint64_t id = 0;
            if (exec::read_journal_id(exec::rebalance_journal_path(args.journal_stem, k),
                                      &id)) {
                next_rebal = k + 1;
            }
        }
        std::vector<exec::CellKey> missing = exec::missing_cells(
            durable_journals(args, -1), campaign_identity(args), args.dies, args.envs);
        for (std::uint32_t round = 1; !missing.empty() && round <= kMaxRebalanceRounds; ++round) {
            coord_crash_point(args, "pre-rebalance");
            // Survivors take the re-homed dies; a fully lost fleet still
            // gets one replacement worker.
            std::uint32_t healthy = 0;
            for (const auto& worker : fleet.workers) {
                if (worker.completed) ++healthy;
            }
            if (healthy == 0) healthy = 1;
            const std::vector<exec::RebalanceAssignment> plan =
                exec::plan_rebalance(missing, healthy);
            const std::uint32_t base = next_rebal;
            if (base + plan.size() > kMaxRebalanceJournals) break;  // probe ceiling
            std::string reason;
            if (round > 1) {
                reason = "rebalance-retry";
            } else {
                std::vector<std::string> reasons;
                for (const auto& worker : fleet.workers) {
                    if (worker.journal_degraded) reasons.push_back("journal-degraded");
                    else if (worker.gave_up) reasons.push_back("gave-up");
                }
                if (reasons.empty()) {
                    reasons.push_back(fleet.breaker_tripped ? "shed" : "incomplete");
                }
                std::sort(reasons.begin(), reasons.end());
                reasons.erase(std::unique(reasons.begin(), reasons.end()), reasons.end());
                for (const std::string& r : reasons) {
                    if (!reason.empty()) reason += '+';
                    reason += r;
                }
            }
            std::fprintf(stderr,
                         "[campaignd] rebalance round %u (%s): %zu missing cell(s) over "
                         "%zu recovery worker(s)\n",
                         round, reason.c_str(), missing.size(), plan.size());
            // Every recovery launch resumes: the planner derives its work
            // from durable journals, its journal may pre-exist, and a
            // restarted recovery worker must replay its own.
            exec::ShardSupervisor::Options recovery_opts = sopts;
            recovery_opts.resume_first = true;
            exec::ShardSupervisor recovery(recovery_opts);
            const exec::ShardSupervisor::Result rfleet = recovery.supervise(
                static_cast<std::uint32_t>(plan.size()),
                [&](const exec::ShardSupervisor::Launch& launch) {
                    const Rehome rehome{join_die_csv(plan[launch.shard].dies),
                                        base + launch.shard};
                    return spawn_worker(args, self, launch, &rehome);
                });
            next_rebal += static_cast<std::uint32_t>(plan.size());
            std::vector<exec::ShardHistory> histories = exec::shard_histories(rfleet);
            for (exec::ShardHistory& history : histories) {
                history.shard += base;  // global recovery-journal numbering
                history.rebalance = true;
                for (exec::ShardAttempt& attempt : history.attempts) {
                    attempt.rebalance = true;
                }
                if (history.journal_degraded) {
                    metrics.journal_degraded.fetch_add(1, std::memory_order_relaxed);
                }
                triage.shards.push_back(std::move(history));
            }
            for (const exec::RebalanceAssignment& assignment : plan) {
                exec::RebalanceRecord record;
                record.round = round;
                record.worker = base + assignment.worker;
                record.reason = reason;
                record.dies = assignment.dies;
                record.cells = assignment.cells;
                record.completed = rfleet.workers[assignment.worker].completed;
                metrics.rebalanced_dies.fetch_add(record.dies.size(), std::memory_order_relaxed);
                metrics.rebalanced_cells.fetch_add(record.cells, std::memory_order_relaxed);
                triage.rebalances.push_back(std::move(record));
            }
            missing = exec::missing_cells(durable_journals(args, -1), campaign_identity(args),
                                          args.dies, args.envs);
        }
        coord_crash_point(args, "post-rebalance");
        // Degradation is judged against the durable record, not the fleet:
        // a gave-up shard whose dies were successfully re-homed leaves no
        // missing cells, so the campaign is NOT degraded.
        degraded = !missing.empty();

        const exec::MergeStats merged =
            exec::merge_shard_journals(durable_journals(args, -1), campaign_journal_path(args),
                                       campaign_identity(args));
        if (!merged.ok) {
            std::fprintf(stderr, "rfabm_campaignd: journal merge failed\n");
            return 2;
        }
        std::fprintf(stderr,
                     "[campaignd] merged %" PRIu64 " journals: %" PRIu64 " cells, %" PRIu64
                     " quarantined, %" PRIu64 " superseded dropped\n",
                     merged.journals_read, merged.cells, merged.quarantined,
                     merged.superseded_dropped);

        // Fold the per-shard surrogate stores the same way the journals fold:
        // pooled samples, one refit over the whole campaign's population,
        // one canonical store next to the canonical journal.
        if (!args.surrogate.empty()) {
            rf::surrogate::SurrogateStore pooled(shadow_store_options());
            std::vector<std::string> stores;
            for (std::uint32_t s = 0; s < args.shards; ++s) {
                stores.push_back(exec::shard_surrogate_path(args.surrogate, s));
            }
            const std::size_t folded = pooled.merge_from(stores);
            if (!pooled.save(args.surrogate)) {
                // Non-fatal: the journal already holds every result; losing a
                // surrogate generation only costs the next run some refits.
                std::fprintf(stderr,
                             "rfabm_campaignd: cannot persist surrogate store %s "
                             "(previous generation kept)\n",
                             args.surrogate.c_str());
            }
            // The pooled store serves nothing: its serving counters stay 0.
            triage.surrogate = exec::surrogate_stats(pooled);
            std::fprintf(stderr,
                         "[campaignd] merged %zu surrogate shard store(s): %zu surfaces, "
                         "worst bound %g\n",
                         folded, pooled.surfaces(), pooled.worst_error_bound());
        }
    }
    coord_crash_point(args, "post-merge");

    // The output is derived ONLY from the canonical campaign journal — never
    // from in-process state — so any run that converged on the same records
    // emits the same bytes.
    const exec::JournalReplay replay =
        exec::replay_journal(campaign_journal_path(args), campaign_identity(args));
    std::unordered_map<exec::CellKey, const exec::CellRecord*, exec::CellKeyHash> cells;
    for (const exec::CellRecord& record : replay.cells) cells[record.key] = &record;
    if (!args.out.empty()) {
        std::FILE* f = std::fopen(args.out.c_str(), "w");
        if (f == nullptr) return 2;
        for (std::uint32_t d = 0; d < args.dies; ++d) {
            for (std::uint32_t e = 0; e < args.envs; ++e) {
                std::fprintf(f, "%" PRIu32 " %" PRIu32, d, e);
                const auto it = cells.find(exec::CellKey{d, e, 0});
                if (it != cells.end()) {
                    for (const double v : it->second->payload) {
                        std::uint64_t bits;
                        std::memcpy(&bits, &v, sizeof bits);
                        std::fprintf(f, " %016" PRIx64, bits);
                    }
                }
                std::fputc('\n', f);
            }
        }
        std::fclose(f);
    }
    const std::uint64_t expected = std::uint64_t{args.dies} * args.envs;
    if (!args.triage_out.empty()) {
        // The multi-shard coordinator never saw per-cell outcomes (workers
        // journal them); account from the canonical journal instead.
        if (args.shards > 1) {
            triage.cells_total = expected;
            triage.counts[static_cast<std::size_t>(exec::CellOutcome::kOk)] =
                replay.cells.size();
            triage.counts[static_cast<std::size_t>(exec::CellOutcome::kQuarantined)] =
                replay.quarantined.size();
            triage.quarantined_cells = replay.quarantined;
        }
        std::ofstream triage_file(args.triage_out, std::ios::trunc);
        if (!triage_file) {
            std::fprintf(stderr, "rfabm_campaignd: cannot write %s\n",
                         args.triage_out.c_str());
            return 2;
        }
        triage_file << triage.to_json() << "\n";
    }
    std::fprintf(stderr, "[campaignd] metrics: %s\n", metrics.snapshot().to_string().c_str());
    std::printf("cells %zu / %" PRIu64 " quarantined %zu\n", replay.cells.size(), expected,
                replay.quarantined.size());
    return !degraded && replay.cells.size() == expected ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, &args)) {
        std::fprintf(stderr, "usage: rfabm_campaignd --journal STEM [options]\n");
        return 2;
    }
    if (args.worker) {
        const exec::ShardSpec shard{args.shard_index, args.shards};
        if (!shard.valid()) return 2;
        // Per-shard re-admission: with the coordinator's admission ticket on
        // disk this is one fingerprint lookup; without it (worker launched
        // by hand) the program is re-interpreted.  Either way a flow-bad
        // program never reaches the measurement loop.
        if (!args.program.empty()) {
            const int rc = admit_program(args, /*is_worker=*/true);
            if (rc != 0) return rc;
        }
        if (args.rebalance_dies.empty()) {
            return run_slice(args, shard_slice(args, shard.index, shard.count,
                                               exec::shard_journal_path(args.journal_stem,
                                                                        shard.index),
                                               args.worker_resume));
        }
        Slice slice;
        if (!rebalance_slice(args, &slice)) return 2;
        return run_slice(args, slice);
    }
    return run_coordinator(args, argv[0]);
}
