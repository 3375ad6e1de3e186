#include "exec/journal.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include <unistd.h>

namespace rfabm::exec {

namespace {

// File layout:  header | record*
//   header: "RFABMWAL" (8 bytes) | u32 version | u64 campaign_id
//   record: u32 type | u32 payload_len | u64 fnv1a64(payload) | payload
// All integers little-endian (memcpy of native values; the journal is a
// local crash-recovery artifact, not a portable interchange format).
constexpr char kMagic[8] = {'R', 'F', 'A', 'B', 'M', 'W', 'A', 'L'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = sizeof(kMagic) + sizeof(std::uint32_t) + sizeof(std::uint64_t);
constexpr std::size_t kRecordHeaderSize = 2 * sizeof(std::uint32_t) + sizeof(std::uint64_t);
// Anything bigger than this is corruption, not a real payload (the largest
// real cell payload is a few KiB of doubles).
constexpr std::uint32_t kMaxPayload = 1u << 26;

constexpr std::uint32_t kRecordCell = 1;
constexpr std::uint32_t kRecordQuarantine = 2;
constexpr std::uint32_t kRecordAttempt = 3;

template <typename T>
void put(std::vector<unsigned char>& buf, const T& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    buf.insert(buf.end(), bytes, bytes + sizeof value);
}

template <typename T>
bool get(const std::vector<unsigned char>& buf, std::size_t& offset, T& value) {
    if (offset + sizeof value > buf.size()) return false;
    std::memcpy(&value, buf.data() + offset, sizeof value);
    offset += sizeof value;
    return true;
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string CellKey::to_string() const {
    std::ostringstream os;
    os << "die " << die << " / env " << env << " / meas " << meas;
    return os.str();
}

bool read_journal_id(const std::string& path, std::uint64_t* campaign_id) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) return false;
    unsigned char header[kHeaderSize];
    const bool ok = std::fread(header, 1, kHeaderSize, file) == kHeaderSize &&
                    std::memcmp(header, kMagic, sizeof kMagic) == 0;
    std::fclose(file);
    if (!ok) return false;
    std::uint32_t version = 0;
    std::memcpy(&version, header + sizeof kMagic, sizeof version);
    if (version != kVersion) return false;
    if (campaign_id != nullptr) {
        std::memcpy(campaign_id, header + sizeof kMagic + sizeof version, sizeof *campaign_id);
    }
    return true;
}

JournalReplay replay_journal(const std::string& path, std::uint64_t campaign_id) {
    JournalReplay replay;
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) return replay;

    unsigned char header[kHeaderSize];
    if (std::fread(header, 1, kHeaderSize, file) != kHeaderSize ||
        std::memcmp(header, kMagic, sizeof kMagic) != 0) {
        std::fclose(file);
        return replay;
    }
    std::uint32_t version = 0;
    std::uint64_t id = 0;
    std::memcpy(&version, header + sizeof kMagic, sizeof version);
    std::memcpy(&id, header + sizeof kMagic + sizeof version, sizeof id);
    if (version != kVersion) {
        std::fclose(file);
        return replay;
    }
    if (id != campaign_id) {
        // A journal from a different campaign must not seed this one: report
        // the mismatch and replay nothing (the caller starts fresh).
        replay.id_mismatch = true;
        std::fclose(file);
        return replay;
    }

    replay.present = true;
    replay.valid_bytes = kHeaderSize;

    // Deduplication state: last record per key wins (merged shard journals
    // and compaction rely on this), earlier ones count as superseded.
    std::unordered_map<CellKey, std::size_t, CellKeyHash> cell_index;
    std::unordered_map<CellKey, std::size_t, CellKeyHash> quarantine_index;
    std::unordered_map<CellKey, std::uint32_t, CellKeyHash> attempts;

    std::vector<unsigned char> payload;
    for (;;) {
        unsigned char rec_header[kRecordHeaderSize];
        const std::size_t got = std::fread(rec_header, 1, kRecordHeaderSize, file);
        if (got == 0) break;  // clean end of journal
        if (got < kRecordHeaderSize) {
            replay.torn_tail = true;
            break;
        }
        std::uint32_t type = 0;
        std::uint32_t len = 0;
        std::uint64_t checksum = 0;
        std::memcpy(&type, rec_header, sizeof type);
        std::memcpy(&len, rec_header + sizeof type, sizeof len);
        std::memcpy(&checksum, rec_header + sizeof type + sizeof len, sizeof checksum);
        if (len > kMaxPayload) {
            replay.checksum_mismatch = true;
            break;
        }
        payload.resize(len);
        if (len != 0 && std::fread(payload.data(), 1, len, file) != len) {
            replay.torn_tail = true;
            break;
        }
        if (fnv1a64(payload.data(), payload.size()) != checksum) {
            // Corruption mid-file: everything after this point is untrusted,
            // so stop here and let the resuming writer truncate it away.
            replay.checksum_mismatch = true;
            break;
        }

        std::size_t off = 0;
        if (type == kRecordCell) {
            CellRecord record;
            std::uint64_t count = 0;
            bool ok = get(payload, off, record.key.die) && get(payload, off, record.key.env) &&
                      get(payload, off, record.key.meas) && get(payload, off, record.outcome) &&
                      get(payload, off, count);
            if (ok && count * sizeof(double) == payload.size() - off) {
                record.payload.resize(count);
                if (count != 0) {
                    std::memcpy(record.payload.data(), payload.data() + off,
                                count * sizeof(double));
                }
                if (auto it = cell_index.find(record.key); it != cell_index.end()) {
                    replay.cells[it->second] = std::move(record);
                    ++replay.superseded_records;
                } else {
                    cell_index.emplace(record.key, replay.cells.size());
                    replay.cells.push_back(std::move(record));
                }
            } else {
                replay.checksum_mismatch = true;
                break;
            }
        } else if (type == kRecordQuarantine) {
            CellKey key;
            std::uint32_t burned = 0;
            if (get(payload, off, key.die) && get(payload, off, key.env) &&
                get(payload, off, key.meas) && get(payload, off, burned)) {
                if (auto it = quarantine_index.find(key); it != quarantine_index.end()) {
                    replay.quarantined[it->second].second = burned;
                    ++replay.superseded_records;
                } else {
                    quarantine_index.emplace(key, replay.quarantined.size());
                    replay.quarantined.emplace_back(key, burned);
                }
            } else {
                replay.checksum_mismatch = true;
                break;
            }
        } else if (type == kRecordAttempt) {
            CellKey key;
            std::uint32_t burned = 0;
            if (get(payload, off, key.die) && get(payload, off, key.env) &&
                get(payload, off, key.meas) && get(payload, off, burned)) {
                auto [it, fresh] = attempts.emplace(key, burned);
                if (!fresh) {
                    it->second = std::max(it->second, burned);
                    ++replay.superseded_records;
                }
            } else {
                replay.checksum_mismatch = true;
                break;
            }
        }
        // Unknown record types are skipped (forward compatibility) but still
        // count as valid bytes — their checksum passed.
        replay.valid_bytes += kRecordHeaderSize + len;
    }
    std::fclose(file);

    // An attempt tally only matters while its cell is still open: once the
    // cell completed or quarantined, the records are superseded (compaction
    // fodder).
    for (const auto& [key, burned] : attempts) {
        if (cell_index.count(key) != 0 || quarantine_index.count(key) != 0) {
            ++replay.superseded_records;
        } else {
            replay.attempts.emplace_back(key, burned);
        }
    }
    return replay;
}

JournalWriter::~JournalWriter() { close(); }

bool JournalWriter::open_fresh(const std::string& path, const Options& options) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ != nullptr) return false;
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr) return false;
    options_ = options;
    stats_ = JournalStats{};
    appends_since_sync_ = 0;
    degraded_ = false;

    std::vector<unsigned char> header;
    header.insert(header.end(), kMagic, kMagic + sizeof kMagic);
    put(header, kVersion);
    put(header, options_.campaign_id);
    if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
        std::fclose(file_);
        file_ = nullptr;
        return false;
    }
    std::fflush(file_);
    stats_.bytes_written += header.size();
    return true;
}

bool JournalWriter::open_resume(const std::string& path, const Options& options,
                                std::uint64_t valid_bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ != nullptr) return false;
    if (valid_bytes < kHeaderSize) return false;
    // Drop the torn tail (if any) before appending: everything past the last
    // intact record is garbage from the crashed run.
    if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) return false;
    file_ = std::fopen(path.c_str(), "ab");
    if (file_ == nullptr) return false;
    options_ = options;
    stats_ = JournalStats{};
    appends_since_sync_ = 0;
    degraded_ = false;
    return true;
}

bool JournalWriter::is_open() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return file_ != nullptr;
}

void JournalWriter::degrade_locked() {
    // Keep the durable prefix readable: flush what stdio still holds, fsync
    // it, and close the file so the coordinator can replay (and rebalance
    // from) the last durable record.  From here on the writer is an
    // in-memory no-op — the campaign degrades instead of crashing.
    if (file_ != nullptr) {
        std::fflush(file_);
        ::fsync(fileno(file_));
        std::fclose(file_);
        file_ = nullptr;
    }
    stats_.degraded = true;
    degraded_ = true;
}

void JournalWriter::append_record(std::uint32_t type, const std::vector<unsigned char>& payload) {
    std::function<void()> degrade_hook;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (file_ == nullptr) {
            if (degraded_) ++stats_.records_dropped;
            return;
        }

        std::vector<unsigned char> buf;
        buf.reserve(kRecordHeaderSize + payload.size());
        put(buf, type);
        put(buf, static_cast<std::uint32_t>(payload.size()));
        put(buf, fnv1a64(payload.data(), payload.size()));
        buf.insert(buf.end(), payload.begin(), payload.end());

        const std::uint64_t record = stats_.records_written + 1;
        const int verdict =
            disk_fault_hook_ ? disk_fault_hook_(DiskOp::kWrite, record) : 0;
        bool failed = false;
        if (verdict < 0) {
            // Injected short write: a prefix of the record reaches the disk
            // (a torn tail the replay truncates away) before the failure.
            const std::size_t half = buf.size() / 2;
            if (half != 0 && std::fwrite(buf.data(), 1, half, file_) == half) {
                stats_.bytes_written += half;
            }
            failed = true;
        } else if (verdict > 0) {
            failed = true;
        } else if (std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size()) {
            failed = true;
        }

        if (!failed) {
            // One flush per record: after this, a SIGKILL cannot lose the
            // record (the bytes are the kernel's problem); fsync below
            // extends that to power loss on a checkpoint cadence.
            std::fflush(file_);
            stats_.bytes_written += buf.size();
            ++stats_.records_written;
            if (type == kRecordQuarantine) ++stats_.quarantine_records;
            if (type == kRecordAttempt) ++stats_.attempt_records;
            ++appends_since_sync_;
            if (options_.checkpoint_every != 0 &&
                appends_since_sync_ >= options_.checkpoint_every) {
                if (disk_fault_hook_ && disk_fault_hook_(DiskOp::kSync, record) != 0) {
                    // The record itself is flushed, but the disk refuses to
                    // commit it durably — same terminal condition as a
                    // refused write.
                    failed = true;
                } else {
                    ::fsync(fileno(file_));
                    ++stats_.fsyncs;
                    appends_since_sync_ = 0;
                }
            }
        }

        if (failed) {
            ++stats_.write_failures;
            degrade_locked();
            degrade_hook = degrade_hook_;
        } else if (hook_) {
            // Under the lock: no other thread can append between this
            // record and whatever the hook does (a crash point's SIGKILL
            // must land with exactly this many records on disk).
            hook_(stats_.records_written);
        }
    }
    if (degrade_hook) degrade_hook();
}

void JournalWriter::append_cell(const CellRecord& record) {
    std::vector<unsigned char> payload;
    payload.reserve(24 + record.payload.size() * sizeof(double));
    put(payload, record.key.die);
    put(payload, record.key.env);
    put(payload, record.key.meas);
    put(payload, record.outcome);
    put(payload, static_cast<std::uint64_t>(record.payload.size()));
    for (double v : record.payload) put(payload, v);
    append_record(kRecordCell, payload);
}

void JournalWriter::append_quarantine(const CellKey& key, std::uint32_t attempts) {
    std::vector<unsigned char> payload;
    put(payload, key.die);
    put(payload, key.env);
    put(payload, key.meas);
    put(payload, attempts);
    append_record(kRecordQuarantine, payload);
}

void JournalWriter::append_attempt(const CellKey& key, std::uint32_t attempts) {
    std::vector<unsigned char> payload;
    put(payload, key.die);
    put(payload, key.env);
    put(payload, key.meas);
    put(payload, attempts);
    append_record(kRecordAttempt, payload);
}

void JournalWriter::checkpoint() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ == nullptr) return;
    std::fflush(file_);
    ::fsync(fileno(file_));
    ++stats_.fsyncs;
    appends_since_sync_ = 0;
}

void JournalWriter::close() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ == nullptr) return;
    std::fflush(file_);
    ::fsync(fileno(file_));
    ++stats_.fsyncs;
    std::fclose(file_);
    file_ = nullptr;
}

JournalStats JournalWriter::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void JournalWriter::set_append_hook(std::function<void(std::uint64_t)> hook) {
    std::lock_guard<std::mutex> lock(mutex_);
    hook_ = std::move(hook);
}

void JournalWriter::set_disk_fault_hook(DiskFaultHook hook) {
    std::lock_guard<std::mutex> lock(mutex_);
    disk_fault_hook_ = std::move(hook);
}

void JournalWriter::set_degrade_hook(std::function<void()> hook) {
    std::lock_guard<std::mutex> lock(mutex_);
    degrade_hook_ = std::move(hook);
}

}  // namespace rfabm::exec
