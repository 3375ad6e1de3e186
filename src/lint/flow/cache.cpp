#include "lint/flow/cache.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace rfabm::lint::flow {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a over 64-bit words: fingerprinting must cost a small fraction of a
/// cold interpretation, so per-op state is packed into words instead of
/// being fed byte by byte.
class Fnv1a {
  public:
    void word(std::uint64_t w) {
        hash_ ^= w;
        hash_ *= kFnvPrime;
    }
    void text(std::string_view s) {
        word(s.size());
        for (const char c : s) word(static_cast<std::uint8_t>(c));
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = kFnvOffset;
};

}  // namespace

std::uint64_t flow_fingerprint(const CampaignProgram& program,
                               const FlowLintOptions& options) {
    Fnv1a h;
    h.text("rfabm-flow-v2");  // bump whenever a rule change can flip a verdict
    h.word((options.check_calibration ? 1u : 0u) | (options.check_dead_updates ? 2u : 0u));
    h.word(program.chain.dies);
    h.word(program.ops.size());
    // Every op's source file is the program file; hash it once, not per op.
    bool file_hashed = false;
    for (const FlowOp& op : program.ops) {
        if (!file_hashed && !op.loc.file.empty()) {
            h.text(op.loc.file);
            file_hashed = true;
        }
        // Word 0: kind, die, ir, detector.  Word 1: the payload (2 bits per
        // abstract Tri) and the source line.  Word 2: runtest cycles.
        std::uint64_t w0 = static_cast<std::uint64_t>(op.kind);
        w0 |= static_cast<std::uint64_t>(op.die) << 8;
        w0 |= static_cast<std::uint64_t>(op.ir) << 40;
        w0 |= static_cast<std::uint64_t>(op.detector) << 48;
        std::uint64_t w1 = 0;
        for (std::size_t b = 0; b < kSelectBits; ++b) {
            w1 |= static_cast<std::uint64_t>(op.bits[b]) << (2 * b);
        }
        w1 |= static_cast<std::uint64_t>(op.loc.line) << 16;
        h.word(w0);
        h.word(w1 ^ (op.cycles << 1));
    }
    return h.value();
}

std::size_t FlowLintCache::admit(const CampaignProgram& program, Report& report,
                                 const FlowLintOptions& options) {
    const std::uint64_t fp = flow_fingerprint(program, options);

    if (const auto it = verdicts_.find(fp); it != verdicts_.end()) {
        ++stats_.hits;
        for (const Diagnostic& diag : it->second) report.add(diag);
        return it->second.size();
    }
    if (clean_.count(fp) > 0) {
        ++stats_.hits;
        return 0;
    }

    ++stats_.misses;
    Report scratch;  // no suppressions: cache the full verdict
    flow_lint(program, scratch, options);
    Report sorted = std::move(scratch);
    sorted.sort();
    const std::vector<Diagnostic>& verdict = sorted.diagnostics();
    for (const Diagnostic& diag : verdict) report.add(diag);
    const std::size_t offered = verdict.size();
    if (offered == 0) {
        clean_.insert(fp);
    } else {
        verdicts_.emplace(fp, verdict);
    }
    return offered;
}

bool FlowLintCache::load(const std::string& path) {
    std::ifstream in(path);
    if (!in) return true;  // no ticket file yet: empty cache
    std::string header;
    if (!std::getline(in, header) || header != "rfabm-lintcache v1") return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        std::uint64_t fp = 0;
        std::istringstream parse(line);
        parse >> std::hex >> fp;
        if (parse.fail()) return false;
        clean_.insert(fp);
    }
    return true;
}

bool FlowLintCache::save(const std::string& path) const {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) return false;
        out << "rfabm-lintcache v1\n";
        std::vector<std::uint64_t> sorted(clean_.begin(), clean_.end());
        std::sort(sorted.begin(), sorted.end());
        out << std::hex;
        for (const std::uint64_t fp : sorted) out << fp << "\n";
        if (!out) return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

}  // namespace rfabm::lint::flow
