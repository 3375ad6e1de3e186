#include "rf/surrogate/store.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

namespace rfabm::rf::surrogate {

const char* to_string(Decision decision) {
    switch (decision) {
        case Decision::kHit: return "hit";
        case Decision::kMiss: return "miss";
        case Decision::kOutOfEnvelope: return "out_of_envelope";
        case Decision::kBoundTooLoose: return "bound_too_loose";
    }
    return "unknown";
}

namespace {

// Local FNV-1a 64: rf sits below exec in the layering, so it cannot reuse
// the journal's copy.  Same constants, same record-level checksum role.
std::uint64_t fnv1a64(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

constexpr char kMagic[8] = {'R', 'F', 'A', 'B', 'M', 'S', 'U', 'R'};
constexpr std::uint32_t kVersion = 1;

void put_u32(std::vector<unsigned char>* out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out->push_back(static_cast<unsigned char>(v >> (8 * i)));
}

void put_u64(std::vector<unsigned char>* out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out->push_back(static_cast<unsigned char>(v >> (8 * i)));
}

void put_f64(std::vector<unsigned char>* out, double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_u64(out, bits);
}

struct Reader {
    const unsigned char* p = nullptr;
    std::size_t left = 0;

    bool u32(std::uint32_t* v) {
        if (left < 4) return false;
        *v = 0;
        for (int i = 0; i < 4; ++i) *v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
        p += 4;
        left -= 4;
        return true;
    }
    bool u64(std::uint64_t* v) {
        if (left < 8) return false;
        *v = 0;
        for (int i = 0; i < 8; ++i) *v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        p += 8;
        left -= 8;
        return true;
    }
    bool f64(double* v) {
        std::uint64_t bits;
        if (!u64(&bits)) return false;
        std::memcpy(v, &bits, sizeof *v);
        return true;
    }
};

}  // namespace

Decision SurrogateStore::classify(const Entry* entry, const Query& q) const {
    if (entry == nullptr || !entry->surface.valid()) return Decision::kMiss;
    if (!entry->surface.envelope().contains(q)) return Decision::kOutOfEnvelope;
    if (options_.max_bound > 0.0 && entry->surface.error_bound() > options_.max_bound) {
        return Decision::kBoundTooLoose;
    }
    return Decision::kHit;
}

Decision SurrogateStore::try_serve(const SurrogateKey& key, const Query& q, double* value,
                                   double* bound) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    const Entry* entry = it == entries_.end() ? nullptr : &it->second;
    const Decision decision = classify(entry, q);
    switch (decision) {
        case Decision::kHit:
            *value = entry->surface.evaluate(q);
            if (bound != nullptr) *bound = entry->surface.error_bound();
            ++counters_.hits;
            break;
        case Decision::kMiss: ++counters_.misses; break;
        case Decision::kOutOfEnvelope: ++counters_.out_of_envelope; break;
        case Decision::kBoundTooLoose: ++counters_.bound_too_loose; break;
    }
    return decision;
}

Decision SurrogateStore::try_serve(const SurrogateKey& key, const std::vector<Query>& queries,
                                   std::vector<double>* values, double* bound) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    const Entry* entry = it == entries_.end() ? nullptr : &it->second;
    // All-or-nothing: a sweep is served only if every point is; otherwise
    // the whole sweep goes to the solver (one session amortizes across it).
    Decision verdict = Decision::kHit;
    for (const Query& q : queries) {
        const Decision d = classify(entry, q);
        if (d != Decision::kHit && verdict == Decision::kHit) verdict = d;
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
        switch (verdict) {
            case Decision::kHit: ++counters_.hits; break;
            case Decision::kMiss: ++counters_.misses; break;
            case Decision::kOutOfEnvelope: ++counters_.out_of_envelope; break;
            case Decision::kBoundTooLoose: ++counters_.bound_too_loose; break;
        }
    }
    if (verdict != Decision::kHit || queries.empty()) return verdict;
    *values = entry->surface.evaluate(queries);
    if (bound != nullptr) *bound = entry->surface.error_bound();
    return Decision::kHit;
}

void SurrogateStore::maybe_refit(Entry& entry) {
    const std::size_t n = entry.samples.size();
    if (n < options_.refit_min_samples) return;
    const std::size_t next =
        entry.fitted_at +
        std::max<std::size_t>(
            1, static_cast<std::size_t>(static_cast<double>(entry.fitted_at) *
                                        options_.refit_growth));
    if (entry.fitted_at != 0 && n < next) return;
    ResponseSurface fitted = ResponseSurface::fit(entry.samples, options_.fit);
    // Mark the attempt even when the fit is rejected (degenerate/singular):
    // retry only after the population grows, not on every observe.
    entry.fitted_at = n;
    if (fitted.valid()) {
        entry.surface = fitted;
        ++counters_.refits;
    }
}

void SurrogateStore::observe(const SurrogateKey& key, const Query& q, double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry& entry = entries_[key];
    entry.samples.push_back(Sample{q, value});
    if (entry.samples.size() > options_.max_samples_per_key) {
        entry.samples.erase(entry.samples.begin(),
                            entry.samples.begin() +
                                static_cast<std::ptrdiff_t>(entry.samples.size() -
                                                            options_.max_samples_per_key));
    }
    ++counters_.observed;
    maybe_refit(entry);
}

ResponseSurface SurrogateStore::surface(const SurrogateKey& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    return it == entries_.end() ? ResponseSurface{} : it->second.surface;
}

std::size_t SurrogateStore::surfaces() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& [key, entry] : entries_) {
        if (entry.surface.valid()) ++n;
    }
    return n;
}

double SurrogateStore::worst_error_bound() const {
    std::lock_guard<std::mutex> lock(mutex_);
    double worst = 0.0;
    for (const auto& [key, entry] : entries_) {
        if (entry.surface.valid() && entry.surface.error_bound() > worst) {
            worst = entry.surface.error_bound();
        }
    }
    return worst;
}

std::size_t SurrogateStore::total_samples() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& [key, entry] : entries_) n += entry.samples.size();
    return n;
}

StoreCounters SurrogateStore::counters() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

bool SurrogateStore::save(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    // Canonical order (quantity, die, corner): the image bytes are a pure
    // function of the logical content, like the merged campaign journal.
    std::vector<const std::pair<const SurrogateKey, Entry>*> sorted;
    sorted.reserve(entries_.size());
    for (const auto& kv : entries_) sorted.push_back(&kv);
    std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
        const SurrogateKey& ka = a->first;
        const SurrogateKey& kb = b->first;
        if (ka.quantity != kb.quantity) return ka.quantity < kb.quantity;
        if (ka.die != kb.die) return ka.die < kb.die;
        return ka.corner < kb.corner;
    });

    std::vector<unsigned char> image;
    image.insert(image.end(), kMagic, kMagic + sizeof kMagic);
    put_u32(&image, kVersion);
    put_u64(&image, sorted.size());
    for (const auto* kv : sorted) {
        const SurrogateKey& key = kv->first;
        const Entry& entry = kv->second;
        put_u32(&image, key.quantity);
        put_u64(&image, key.die);
        put_u64(&image, key.corner);
        put_u64(&image, entry.samples.size());
        for (const Sample& s : entry.samples) {
            put_f64(&image, s.where.pin_dbm);
            put_f64(&image, s.where.freq_hz);
            put_f64(&image, s.where.vdd);
            put_f64(&image, s.value);
        }
        put_u64(&image, entry.fitted_at);
        const std::vector<double> blob =
            entry.surface.valid() ? entry.surface.encode() : std::vector<double>{};
        put_u64(&image, blob.size());
        for (double d : blob) put_f64(&image, d);
    }
    put_u64(&image, fnv1a64(image.data(), image.size()));

    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        ++counters_.save_failed;
        return false;
    }
    // Each physical step consults the fault seam first: an injected refusal
    // fails the save exactly where a real ENOSPC/EIO would.
    const auto refused = [this](const char* op) {
        return disk_fault_hook_ && disk_fault_hook_(op) != 0;
    };
    const bool wrote = !refused("write") &&
                       std::fwrite(image.data(), 1, image.size(), f) == image.size() &&
                       std::fflush(f) == 0 && !refused("sync") && ::fsync(::fileno(f)) == 0;
    std::fclose(f);
    if (!wrote || refused("rename") || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        ++counters_.save_failed;
        return false;
    }
    return true;
}

void SurrogateStore::set_disk_fault_hook(std::function<int(const char* op)> hook) {
    std::lock_guard<std::mutex> lock(mutex_);
    disk_fault_hook_ = std::move(hook);
}

bool SurrogateStore::load_image(
    const std::string& path,
    std::unordered_map<SurrogateKey, Entry, SurrogateKeyHash>* out) const {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return false;
    std::vector<unsigned char> image;
    unsigned char buf[1 << 16];
    for (;;) {
        const std::size_t n = std::fread(buf, 1, sizeof buf, f);
        image.insert(image.end(), buf, buf + n);
        if (n < sizeof buf) break;
    }
    std::fclose(f);

    // Verify before trusting anything: magic, version, whole-image checksum.
    const std::size_t header = sizeof kMagic + 4 + 8;
    if (image.size() < header + 8) return false;
    if (std::memcmp(image.data(), kMagic, sizeof kMagic) != 0) return false;
    const std::size_t body = image.size() - 8;
    Reader tail{image.data() + body, 8};
    std::uint64_t checksum = 0;
    tail.u64(&checksum);
    if (checksum != fnv1a64(image.data(), body)) return false;

    Reader r{image.data() + sizeof kMagic, body - sizeof kMagic};
    std::uint32_t version = 0;
    std::uint64_t count = 0;
    if (!r.u32(&version) || version != kVersion || !r.u64(&count)) return false;
    std::unordered_map<SurrogateKey, Entry, SurrogateKeyHash> parsed;
    for (std::uint64_t i = 0; i < count; ++i) {
        SurrogateKey key;
        Entry entry;
        std::uint64_t nsamples = 0;
        if (!r.u32(&key.quantity) || !r.u64(&key.die) || !r.u64(&key.corner) ||
            !r.u64(&nsamples) || nsamples > r.left / (4 * 8)) {
            return false;
        }
        entry.samples.resize(nsamples);
        for (Sample& s : entry.samples) {
            if (!r.f64(&s.where.pin_dbm) || !r.f64(&s.where.freq_hz) ||
                !r.f64(&s.where.vdd) || !r.f64(&s.value)) {
                return false;
            }
        }
        std::uint64_t fitted_at = 0;
        std::uint64_t blob_len = 0;
        if (!r.u64(&fitted_at) || !r.u64(&blob_len) || blob_len > r.left / 8) return false;
        entry.fitted_at = static_cast<std::size_t>(fitted_at);
        if (blob_len > 0) {
            std::vector<double> blob(blob_len);
            for (double& d : blob) {
                if (!r.f64(&d)) return false;
            }
            entry.surface = ResponseSurface::decode(blob);
            if (!entry.surface.valid()) return false;  // structurally corrupt
        }
        parsed.emplace(key, std::move(entry));
    }
    if (r.left != 0) return false;  // trailing garbage under a stale checksum
    *out = std::move(parsed);
    return true;
}

bool SurrogateStore::load(const std::string& path) {
    std::unordered_map<SurrogateKey, Entry, SurrogateKeyHash> parsed;
    const bool ok = load_image(path, &parsed);
    // A missing file is a cold start, not a rejection: only an image that
    // exists and cannot be read or verified counts.
    const bool missing = !ok && ::access(path.c_str(), F_OK) != 0 && errno == ENOENT;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!ok) {
        if (!missing) ++counters_.load_rejected;
        entries_.clear();  // discard: never serve from a half-trusted image
        return false;
    }
    entries_ = std::move(parsed);
    return true;
}

std::size_t SurrogateStore::merge_from(const std::vector<std::string>& inputs) {
    std::size_t folded = 0;
    for (const std::string& path : inputs) {
        std::unordered_map<SurrogateKey, Entry, SurrogateKeyHash> parsed;
        if (!load_image(path, &parsed)) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++counters_.load_rejected;
            continue;
        }
        ++folded;
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto& [key, incoming] : parsed) {
            Entry& mine = entries_[key];
            mine.samples.insert(mine.samples.end(), incoming.samples.begin(),
                                incoming.samples.end());
            if (mine.samples.size() > options_.max_samples_per_key) {
                mine.samples.erase(
                    mine.samples.begin(),
                    mine.samples.begin() + static_cast<std::ptrdiff_t>(
                                               mine.samples.size() -
                                               options_.max_samples_per_key));
            }
        }
    }
    // Refit everything the merge touched so the published surfaces reflect
    // the pooled population, not one shard's slice.
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [key, entry] : entries_) {
        if (entry.samples.size() < options_.refit_min_samples) continue;
        ResponseSurface fitted = ResponseSurface::fit(entry.samples, options_.fit);
        entry.fitted_at = entry.samples.size();
        if (fitted.valid()) {
            entry.surface = fitted;
            ++counters_.refits;
        }
    }
    return folded;
}

}  // namespace rfabm::rf::surrogate
