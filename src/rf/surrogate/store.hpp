// Surrogate store: the serving layer of the two-tier architecture.
//
// A SurrogateStore maps (structure, die, corner) keys to fitted
// ResponseSurfaces plus their training samples.  Serving is a read-through
// tier above full simulation:
//
//   try_serve(key, q)  -> kHit            value returned, solver untouched
//                      -> kMiss           no fitted surface yet
//                      -> kOutOfEnvelope  q outside the fitted domain
//                      -> kBoundTooLoose  surface exists but its error bound
//                                         exceeds the caller's budget
//
// Every non-hit is a structured decision the caller records (campaign
// metrics, triage report) before falling back to the full transient solve;
// observe() feeds the solve's result back so the surface refits and the next
// query hits.  The store is thread-safe: campaign workers serve and observe
// concurrently.
//
// Persistence follows the campaign journal's discipline (docs/surrogate.md):
// a versioned, FNV-1a-checksummed binary image written to "<path>.tmp",
// fsynced and renamed into place — so sharded workers and kill-and-resume
// runs share one store and a crash mid-save never corrupts the previous
// generation.  load() VERIFIES before it trusts: a truncated, bit-flipped,
// foreign or wrong-version file is rejected whole (load returns false, the
// store stays empty) and the campaign falls back to full simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "rf/surrogate/surface.hpp"

namespace rfabm::rf::surrogate {

/// Which measured quantity a surface models.
enum class Quantity : std::uint32_t {
    kPowerVout = 0,  ///< power detector settled Vout vs (Pin, f, VDD)
    kFreqVout = 1,   ///< FVC settled Vout vs (Pin, f, VDD)
    kCustom = 2,     ///< caller-defined response (e.g. campaignd's synth grid)
};

/// Identity of one response surface: the measured structure/quantity, the
/// die (process identity hash) and the environmental corner (hash of the
/// non-input axes, typically temperature).  Supply is a model INPUT, not a
/// key component.
struct SurrogateKey {
    std::uint32_t quantity = 0;
    std::uint64_t die = 0;
    std::uint64_t corner = 0;

    bool operator==(const SurrogateKey&) const = default;
};

struct SurrogateKeyHash {
    std::size_t operator()(const SurrogateKey& k) const {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (std::uint64_t v : {static_cast<std::uint64_t>(k.quantity), k.die, k.corner}) {
            h ^= v;
            h *= 0x100000001b3ULL;
        }
        return static_cast<std::size_t>(h);
    }
};

/// Outcome of one serving attempt.
enum class Decision : std::uint32_t {
    kHit = 0,
    kMiss = 1,
    kOutOfEnvelope = 2,
    kBoundTooLoose = 3,
};
const char* to_string(Decision decision);

/// Monotonic tallies of every serving / fitting event, snapshot-copyable
/// into CampaignMetrics and the TriageReport.
struct StoreCounters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t out_of_envelope = 0;
    std::uint64_t bound_too_loose = 0;
    std::uint64_t observed = 0;  ///< full-solve samples fed back
    std::uint64_t refits = 0;    ///< surfaces (re)fitted
    std::uint64_t load_rejected = 0;  ///< persisted stores discarded at load
    std::uint64_t save_failed = 0;    ///< save attempts the disk refused
};

struct StoreOptions {
    /// Serve only surfaces whose published error bound is at or under this
    /// budget (same unit as the fitted value; volts for detector surfaces).
    /// <= 0 disables the check.
    double max_bound = 20e-3;
    /// First fit happens once a key holds this many samples...
    std::size_t refit_min_samples = 24;
    /// ...and refits happen when the sample count has grown by this fraction
    /// since the last fit (new data keeps sharpening the surface).
    double refit_growth = 0.25;
    /// Per-key sample retention cap; oldest samples age out first.  Bounds
    /// both memory and the persisted image for long campaigns.
    std::size_t max_samples_per_key = 4096;
    FitOptions fit{};
};

class SurrogateStore {
  public:
    SurrogateStore() = default;
    explicit SurrogateStore(StoreOptions options) : options_(options) {}

    SurrogateStore(const SurrogateStore&) = delete;
    SurrogateStore& operator=(const SurrogateStore&) = delete;

    /// Answer @p q from the fitted surface for @p key, if honest to do so.
    /// On kHit, *value receives the prediction and *bound (when non-null)
    /// the surface's error bound.  Never touches a solver.
    Decision try_serve(const SurrogateKey& key, const Query& q, double* value,
                       double* bound = nullptr);

    /// Batched serving for sweep-style campaigns: all-or-nothing.  Returns
    /// kHit and fills *values (input order) only when EVERY query is served
    /// by the same surface within envelope and bound; otherwise returns the
    /// first blocking decision and the caller runs the full sweep.  Counters
    /// tally one decision per query.
    Decision try_serve(const SurrogateKey& key, const std::vector<Query>& queries,
                       std::vector<double>* values, double* bound = nullptr);

    /// Feed one completed full-solve observation back into the store.
    /// Triggers a (re)fit per StoreOptions; a fit that fails (too few or
    /// degenerate samples) leaves the previous surface serving.
    void observe(const SurrogateKey& key, const Query& q, double value);

    /// Fitted surface for @p key (invalid surface when absent) — for
    /// benches/tests that inspect envelopes and bounds.
    ResponseSurface surface(const SurrogateKey& key) const;

    std::size_t surfaces() const;      ///< keys with a valid fitted surface
    std::size_t total_samples() const; ///< retained samples across keys
    /// Max published error bound across valid surfaces (0 when none) — for
    /// campaign triage reporting.
    double worst_error_bound() const;
    StoreCounters counters() const;

    const StoreOptions& options() const { return options_; }

    // --- persistence --------------------------------------------------------
    /// Serialize every key's samples and fitted surface to @p path via
    /// "<path>.tmp" + fsync + rename.  False on I/O failure (the previous
    /// file, if any, is untouched).
    bool save(const std::string& path) const;

    /// Replace this store's contents with the image at @p path.  Returns
    /// false — leaving the store EMPTY — when the file is missing, truncated,
    /// checksum-corrupt, wrong-magic or wrong-version; serving then degrades
    /// to all-miss and the campaign refits from full simulation.  A missing
    /// file is a cold start and is not counted in load_rejected; every other
    /// failure is.
    bool load(const std::string& path);

    /// Fold the stores at @p inputs (missing/corrupt files are skipped) plus
    /// this store's own contents together, refit, and keep the result here.
    /// Returns the number of input files folded.  Used by the sharded
    /// coordinator to merge per-shard stores into one campaign store.
    std::size_t merge_from(const std::vector<std::string>& inputs);

    /// Persistence fault seam (kDiskFault idiom; the rf layer cannot depend
    /// on exec, so the hook is op-name based): consulted during save() at
    /// each physical step — "write", "sync", "rename".  A nonzero return
    /// makes that step fail as if the disk had refused it; save() then
    /// returns false with counters().save_failed incremented and the
    /// previous on-disk generation untouched.  Empty hook clears the seam.
    void set_disk_fault_hook(std::function<int(const char* op)> hook);

  private:
    struct Entry {
        std::vector<Sample> samples;
        ResponseSurface surface;
        std::size_t fitted_at = 0;  ///< sample count at the last (re)fit
    };

    void maybe_refit(Entry& entry);
    Decision classify(const Entry* entry, const Query& q) const;
    bool load_image(const std::string& path,
                    std::unordered_map<SurrogateKey, Entry, SurrogateKeyHash>* out) const;

    mutable std::mutex mutex_;
    StoreOptions options_{};
    std::unordered_map<SurrogateKey, Entry, SurrogateKeyHash> entries_;
    mutable StoreCounters counters_{};
    std::function<int(const char* op)> disk_fault_hook_;
};

}  // namespace rfabm::rf::surrogate
