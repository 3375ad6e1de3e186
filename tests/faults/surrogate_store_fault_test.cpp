// Fault injection against the surrogate tier's persistence: a corrupted or
// truncated store image must be detected at load, discarded WHOLESALE (never
// partially trusted), and the campaign must fall back cleanly to full
// simulation — bit-identical to a run that never had a store at all.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/measurement.hpp"
#include "rf/curve.hpp"
#include "rf/surrogate/store.hpp"
#include "support/temp_path.hpp"

namespace rfabm::faults {
namespace {

namespace sur = rfabm::rf::surrogate;
namespace core = rfabm::core;

std::string temp_path(const char* stem) { return test::temp_path(std::string(stem) + ".sur"); }

/// A store image with one fitted surface, as a sharded worker would leave it.
void write_trained_store(const std::string& path) {
    sur::StoreOptions opts;
    opts.refit_min_samples = 12;
    sur::SurrogateStore store(opts);
    const sur::SurrogateKey key{0, 0xD1E, 0xC0E};
    for (int i = 0; i < 12; ++i) {
        const double p = -10.0 + i;
        store.observe(key, sur::Query{p, 1.5e9, 1.8}, 0.5 + 0.02 * p);
    }
    ASSERT_EQ(store.surfaces(), 1u);
    ASSERT_TRUE(store.save(path));
}

std::vector<unsigned char> read_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<unsigned char> bytes;
    int c = 0;
    while (f != nullptr && (c = std::fgetc(f)) != EOF) {
        bytes.push_back(static_cast<unsigned char>(c));
    }
    if (f != nullptr) std::fclose(f);
    return bytes;
}

void write_file(const std::string& path, const std::vector<unsigned char>& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

/// Load must reject the image at @p path, leave the store EMPTY and count
/// the rejection; serving then degrades to a clean miss.
void expect_rejected(const std::string& path, const char* what) {
    sur::SurrogateStore store;
    EXPECT_FALSE(store.load(path)) << what;
    EXPECT_EQ(store.surfaces(), 0u) << what;
    EXPECT_EQ(store.total_samples(), 0u) << what;
    EXPECT_EQ(store.counters().load_rejected, 1u) << what;
    double value = 0.0;
    EXPECT_EQ(store.try_serve(sur::SurrogateKey{0, 0xD1E, 0xC0E},
                              sur::Query{-5.0, 1.5e9, 1.8}, &value),
              sur::Decision::kMiss)
        << what;
}

TEST(SurrogateStoreFaultTest, CorruptionMatrixIsRejectedWholesale) {
    const std::string good = temp_path("fault_good");
    const std::string bad = temp_path("fault_bad");
    write_trained_store(good);
    const std::vector<unsigned char> image = read_file(good);
    ASSERT_GT(image.size(), 64u);

    // Sanity: the untouched image loads.
    {
        sur::SurrogateStore store;
        EXPECT_TRUE(store.load(good));
        EXPECT_EQ(store.surfaces(), 1u);
    }

    {  // Truncated mid-body (a crash mid-copy; rename discipline makes this
       // rare, but a worker reading a shard over a flaky mount still sees it).
        std::vector<unsigned char> m(image.begin(),
                                     image.begin() + static_cast<long>(image.size() * 6 / 10));
        write_file(bad, m);
        expect_rejected(bad, "truncated to 60%");
    }
    {  // Truncated to less than a header: too short to even verify.
        std::vector<unsigned char> m(image.begin(), image.begin() + 10);
        write_file(bad, m);
        expect_rejected(bad, "header-only stub");
    }
    {  // Single bit flip in the payload: the whole-image checksum catches it.
        std::vector<unsigned char> m = image;
        m[m.size() / 2] ^= 0x40;
        write_file(bad, m);
        expect_rejected(bad, "bit flip mid-payload");
    }
    {  // Bit flip inside the checksum trailer itself.
        std::vector<unsigned char> m = image;
        m[m.size() - 3] ^= 0x01;
        write_file(bad, m);
        expect_rejected(bad, "bit flip in checksum");
    }
    {  // Foreign file wearing the right extension.
        write_file(bad, {'n', 'o', 't', ' ', 'a', ' ', 's', 't', 'o', 'r', 'e'});
        expect_rejected(bad, "foreign file");
    }
    {  // Wrong magic, right length.
        std::vector<unsigned char> m = image;
        m[0] ^= 0xFF;
        write_file(bad, m);
        expect_rejected(bad, "wrong magic");
    }
    {  // Trailing garbage appended after a once-valid image.
        std::vector<unsigned char> m = image;
        m.insert(m.end(), {0xDE, 0xAD, 0xBE, 0xEF});
        write_file(bad, m);
        expect_rejected(bad, "trailing garbage");
    }

    std::remove(good.c_str());
    std::remove(bad.c_str());
}

TEST(SurrogateStoreFaultTest, RejectedStoreFallsBackToCleanFullSimulation) {
    // A campaign worker whose persisted store is corrupt must produce results
    // bit-identical to a worker that never had a surrogate tier: the rejected
    // image is discarded, every query misses, and the full solver answers.
    const std::string bad = temp_path("fault_campaign");
    write_trained_store(bad);
    std::vector<unsigned char> m = read_file(bad);
    m[m.size() / 3] ^= 0x10;
    write_file(bad, m);

    sur::SurrogateStore store;
    EXPECT_FALSE(store.load(bad));
    EXPECT_EQ(store.counters().load_rejected, 1u);

    const rfabm::rf::MonotoneCurve curve({{-20.0, 0.0}, {7.0, 1.0}});
    const std::vector<double> sweep{-8.0, -4.0, 0.0};

    core::RfAbmChip ref_chip{core::RfAbmChipConfig{}};
    core::MeasurementController ref_ctrl(ref_chip);
    ref_ctrl.open_session();

    core::RfAbmChip sur_chip{core::RfAbmChipConfig{}};
    core::MeasureOptions mopts;
    mopts.surrogate.store = &store;
    mopts.surrogate.die = 0xD1E;
    mopts.surrogate.corner = 0xC0E;
    core::MeasurementController sur_ctrl(sur_chip, mopts);
    sur_ctrl.open_session();

    for (double dbm : sweep) {
        ref_chip.set_rf(dbm, 1.5e9);
        const core::PowerMeasurement ref = ref_ctrl.measure_power(curve);
        sur_chip.set_rf(dbm, 1.5e9);
        const core::PowerMeasurement got = sur_ctrl.measure_power(curve);
        EXPECT_FALSE(got.from_surrogate) << dbm;
        EXPECT_EQ(got.vout, ref.vout) << dbm;  // bitwise: the same full solve
        EXPECT_EQ(got.dbm, ref.dbm) << dbm;
    }
    // Every query was a clean miss; the fallback solves trained the store,
    // so the campaign recovers its warm tier instead of staying degraded.
    EXPECT_GE(store.counters().misses, 1u);
    EXPECT_EQ(store.counters().hits, 0u);
    EXPECT_EQ(store.counters().observed, sweep.size());

    std::remove(bad.c_str());
}

TEST(SurrogateStoreFaultTest, SaveFaultsLeavePreviousGenerationIntact) {
    // The save-side mirror of the corruption matrix: whichever physical step
    // the disk refuses — write, fsync or rename — save() must fail CLOSED,
    // count the failure, and leave the previous on-disk generation loadable.
    const std::string path = temp_path("fault_save");
    write_trained_store(path);
    const std::vector<unsigned char> previous = read_file(path);
    ASSERT_FALSE(previous.empty());

    // A retrained store (different samples → different image) tries to
    // overwrite the published generation while the disk misbehaves.
    sur::StoreOptions opts;
    opts.refit_min_samples = 12;
    sur::SurrogateStore store(opts);
    const sur::SurrogateKey key{0, 0xD1E, 0xC0E};
    for (int i = 0; i < 12; ++i) {
        const double p = -12.0 + i;
        store.observe(key, sur::Query{p, 2.0e9, 1.8}, 0.4 + 0.03 * p);
    }
    ASSERT_EQ(store.surfaces(), 1u);

    std::uint64_t failures = 0;
    for (const char* fail_op : {"write", "sync", "rename"}) {
        store.set_disk_fault_hook(
            [fail_op](const char* op) { return std::strcmp(op, fail_op) == 0 ? ENOSPC : 0; });
        EXPECT_FALSE(store.save(path)) << fail_op;
        EXPECT_EQ(store.counters().save_failed, ++failures) << fail_op;
        EXPECT_EQ(read_file(path), previous)
            << fail_op << ": previous generation must be untouched";
        sur::SurrogateStore reload;
        EXPECT_TRUE(reload.load(path)) << fail_op << ": previous generation must still load";
        EXPECT_EQ(reload.surfaces(), 1u) << fail_op;
    }

    // Clearing the seam restores saving and the new generation publishes.
    store.set_disk_fault_hook({});
    EXPECT_TRUE(store.save(path));
    EXPECT_NE(read_file(path), previous) << "the retrained generation must publish";
    sur::SurrogateStore reload;
    EXPECT_TRUE(reload.load(path));
    EXPECT_EQ(reload.surfaces(), 1u);

    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace rfabm::faults
