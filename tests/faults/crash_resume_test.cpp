// Kill-and-resume integration: a journaled campaign SIGKILLed at an injected
// crash point resumes and produces byte-identical output to an uninterrupted
// run, at jobs=1 and jobs=8, including across a torn journal tail.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "support/temp_path.hpp"

#ifndef CRASH_RESUME_HELPER
#error "CRASH_RESUME_HELPER must point at the helper binary"
#endif

namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Run the helper; returns the raw std::system() status.
int run_helper(const std::string& args) {
    const std::string cmd =
        std::string(CRASH_RESUME_HELPER) + " " + args + " > /dev/null 2>&1";
    return std::system(cmd.c_str());
}

bool exited_zero(int status) { return WIFEXITED(status) && WEXITSTATUS(status) == 0; }
bool died_by_sigkill(int status) {
    // Direct kill, or the intermediate `sh -c` reporting the child's SIGKILL
    // as exit 128+9.
    if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) return true;
    return WIFEXITED(status) && WEXITSTATUS(status) == 128 + SIGKILL;
}

class CrashResumeTest : public ::testing::TestWithParam<int> {
  protected:
    void SetUp() override {
        // One stem per test case (the name already encodes the jobs param),
        // so ctest -j runs of sibling cases never share journals.
        const std::string stem = rfabm::test::temp_path("crashresume_");
        clean_journal = stem + "clean.wal";
        crash_journal = stem + "crash.wal";
        clean_out = stem + "clean.txt";
        resumed_out = stem + "resumed.txt";
        for (const auto& p : {clean_journal, crash_journal, clean_out, resumed_out}) {
            std::remove(p.c_str());
        }
    }
    void TearDown() override {
        for (const auto& p : {clean_journal, crash_journal, clean_out, resumed_out}) {
            std::remove(p.c_str());
        }
    }

    std::string jobs_arg() const { return " --jobs " + std::to_string(GetParam()); }

    std::string clean_journal, crash_journal, clean_out, resumed_out;
};

TEST_P(CrashResumeTest, KilledCampaignResumesByteIdentical) {
    // Uninterrupted reference run.
    ASSERT_TRUE(exited_zero(run_helper("--journal " + clean_journal + " --out " +
                                       clean_out + jobs_arg())));
    const std::string reference = slurp(clean_out);
    ASSERT_FALSE(reference.empty());

    // Crash mid-campaign: the injected fault SIGKILLs at journal record 5 of
    // 16, so the process must die by signal, not exit.
    const int crashed = run_helper("--journal " + crash_journal +
                                   " --crash-after 5" + jobs_arg());
    ASSERT_TRUE(died_by_sigkill(crashed))
        << "expected SIGKILL at the crash point, status=" << crashed;

    // Resume: replays the 5 durable records, re-runs the rest.
    ASSERT_TRUE(exited_zero(run_helper("--journal " + crash_journal + " --resume --out " +
                                       resumed_out + jobs_arg())));
    EXPECT_EQ(slurp(resumed_out), reference)
        << "resumed output must be byte-identical to the uninterrupted run";
}

TEST_P(CrashResumeTest, ResumeSurvivesATornTail) {
    ASSERT_TRUE(exited_zero(run_helper("--journal " + clean_journal + " --out " +
                                       clean_out + jobs_arg())));
    const std::string reference = slurp(clean_out);

    const int crashed = run_helper("--journal " + crash_journal +
                                   " --crash-after 7" + jobs_arg());
    ASSERT_TRUE(died_by_sigkill(crashed));

    // Simulate the crash landing mid-fwrite: a half-written record after the
    // last durable one.  Resume must drop it and still converge bit-exactly.
    {
        std::FILE* f = std::fopen(crash_journal.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const unsigned char torn[] = {0x01, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00};
        std::fwrite(torn, 1, sizeof torn, f);
        std::fclose(f);
    }

    ASSERT_TRUE(exited_zero(run_helper("--journal " + crash_journal + " --resume --out " +
                                       resumed_out + jobs_arg())));
    EXPECT_EQ(slurp(resumed_out), reference);
}

TEST_P(CrashResumeTest, DoubleCrashStillConverges) {
    // Crash, resume into a second crash later in the campaign, resume again:
    // the journal absorbs an arbitrary number of splits.
    ASSERT_TRUE(exited_zero(run_helper("--journal " + clean_journal + " --out " +
                                       clean_out + jobs_arg())));
    const std::string reference = slurp(clean_out);

    ASSERT_TRUE(died_by_sigkill(run_helper("--journal " + crash_journal +
                                           " --crash-after 4" + jobs_arg())));
    ASSERT_TRUE(died_by_sigkill(run_helper("--journal " + crash_journal +
                                           " --resume --crash-after 11" + jobs_arg())));
    ASSERT_TRUE(exited_zero(run_helper("--journal " + crash_journal + " --resume --out " +
                                       resumed_out + jobs_arg())));
    EXPECT_EQ(slurp(resumed_out), reference);
}

TEST_P(CrashResumeTest, KilledAtCalibrationPublishResumesByteIdentical) {
    // The cache publish is the window where a die's calibration is visible
    // to other tasks but nothing of it is journaled: the resumed process
    // must recalibrate (the cache is in-memory) and converge bit-exactly.
    ASSERT_TRUE(exited_zero(run_helper("--with-cal --journal " + clean_journal +
                                       " --out " + clean_out + jobs_arg())));
    const std::string reference = slurp(clean_out);
    ASSERT_FALSE(reference.empty());

    const int crashed = run_helper("--journal " + crash_journal + " --crash-cal 2" +
                                   jobs_arg());
    ASSERT_TRUE(died_by_sigkill(crashed))
        << "expected SIGKILL at the 2nd calibration publish, status=" << crashed;

    ASSERT_TRUE(exited_zero(run_helper("--with-cal --journal " + crash_journal +
                                       " --resume --out " + resumed_out + jobs_arg())));
    EXPECT_EQ(slurp(resumed_out), reference);
}

TEST_P(CrashResumeTest, KilledAtSessionOpenResumesByteIdentical) {
    // The TAP session boundary: chip state is established (PROBE loaded,
    // TBIC connected) but the cell has produced nothing journalable — the
    // interrupted cell must re-run from scratch on resume.
    ASSERT_TRUE(exited_zero(run_helper("--sessions --journal " + clean_journal +
                                       " --out " + clean_out + jobs_arg())));
    const std::string reference = slurp(clean_out);
    ASSERT_FALSE(reference.empty());

    const int crashed = run_helper("--journal " + crash_journal + " --crash-session 3" +
                                   jobs_arg());
    ASSERT_TRUE(died_by_sigkill(crashed))
        << "expected SIGKILL at the 3rd session open, status=" << crashed;

    ASSERT_TRUE(exited_zero(run_helper("--sessions --journal " + crash_journal +
                                       " --resume --out " + resumed_out + jobs_arg())));
    EXPECT_EQ(slurp(resumed_out), reference);
}

INSTANTIATE_TEST_SUITE_P(JobCounts, CrashResumeTest, ::testing::Values(1, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                             return "jobs" + std::to_string(info.param);
                         });

}  // namespace
