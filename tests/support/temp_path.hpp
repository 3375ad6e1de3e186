// Temp file paths unique to one test in one process.
//
// ::testing::TempDir() is shared by every build tree on a host, so a path
// built from a test name alone collides when two trees run ctest at once
// (say default and asan-ubsan).  temp_path() keys the path by the running
// test's suite and name and by the process id.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <string_view>

namespace rfabm::test {

/// TempDir() + "rfabm_<suite>_<test>_<pid>_<stem>"; the '/' of
/// parameterized suite and test names becomes '_'.
inline std::string temp_path(std::string_view stem) {
    std::string key = "rfabm_";
    if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
        key += std::string(info->test_suite_name()) + "_" + info->name() + "_";
    }
    for (char& c : key) {
        if (c == '/') c = '_';
    }
    return ::testing::TempDir() + key + std::to_string(::getpid()) + "_" + std::string(stem);
}

}  // namespace rfabm::test
