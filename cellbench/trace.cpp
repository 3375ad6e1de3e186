#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace cellbench {

Tracer::Tracer(HostClock& clock, bool enabled) : clock_(clock), enabled_(enabled) {}

int Tracer::begin(const char* name, std::uint64_t cell) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.cell = cell;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_s = clock_.now();
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    open_slice_.push_back(clock_.slice_total_s());
    return index;
}

void Tracer::end(int index) {
    if (index < 0 || open_.empty() || open_.back() != index) return;
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_s = clock_.now();
    s.slice_s = clock_.slice_total_s() - open_slice_.back();
    open_.pop_back();
    open_slice_.pop_back();
}

void Tracer::record(const char* name, double start_s, double end_s) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.cell = s.parent < 0 ? 0 : spans_[static_cast<std::size_t>(s.parent)].cell;
    s.start_s = start_s;
    s.end_s = end_s;
    s.slice_s = end_s - start_s;  // a slice is all slice: no program time
    spans_.push_back(std::move(s));
}

std::vector<double> Tracer::self_program_s() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].program_s();
    for (const Span& s : spans_) {
        if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.program_s();
    }
    return self;
}

std::string Tracer::chrome_json() const {
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"cell\":%llu,\"parent\":%d,"
                      "\"program_us\":%.3f}}%s\n",
                      s.name.c_str(), static_cast<int>(s.name.find('.')), s.name.c_str(),
                      (s.start_s - t0) * 1e6, (s.end_s - s.start_s) * 1e6,
                      static_cast<unsigned long long>(s.cell), s.parent, s.program_s() * 1e6,
                      i + 1 < spans_.size() ? "," : "");
        out += buf;
    }
    out += "]}\n";
    return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string json = chrome_json();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

namespace {

/// 1-based nearest rank of percentile @p pct among @p n samples; the slack
/// keeps 99.9% of 10000 at rank 9990 despite binary rounding.
double nearest_rank(double pct, double n) { return std::ceil(pct / 100.0 * n - 1e-9); }

}  // namespace

double median(std::vector<double> samples) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double percentile(std::vector<double> samples, double pct) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    const auto rank = static_cast<std::size_t>(nearest_rank(pct, static_cast<double>(n)));
    return samples[std::clamp<std::size_t>(rank, 1, n) - 1];
}

Tail tail_percentile(const std::vector<double>& samples) {
    Tail t;
    t.samples = samples.size();
    const double n = static_cast<double>(samples.size());
    for (const double pct : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
        // Samples strictly beyond the nearest-rank position.
        const double beyond = n - nearest_rank(pct, n);
        if (beyond >= 10.0) t.pct = pct;
    }
    t.value = percentile(samples, t.pct);
    return t;
}

Digest& Digest::add(double v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
        hash_ ^= b;
        hash_ *= 0x100000001b3ULL;
    }
    return *this;
}

std::string Digest::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
}

}  // namespace cellbench
