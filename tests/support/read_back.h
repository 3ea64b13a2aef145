// Read a writer's output back through the one artifact reader
// (obs/artifact.h): the strict mode must accept it, and the lenient
// mode decodes it for a round-trip test to compare with what was
// written.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "obs/artifact.h"

namespace mntp::test {

/// `name` in gtest's temp dir, prefixed with the running test's suite
/// and name. CTest runs each test in its own process, so a fixed name
/// would let one test rewrite the file while another reads it.
inline std::string temp_path(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string prefix = std::string(info->test_suite_name()) + "." +
                       info->name() + ".";
  std::replace(prefix.begin(), prefix.end(), '/', '_');  // parameterized
  return ::testing::TempDir() + prefix + name;
}

/// Write `text` to temp_path(name), require validate_artifact to accept
/// it, and return its summary ("kind: ...").
inline std::string validate_back(const std::string& name,
                                 const std::string& text) {
  const std::string path = temp_path(name);
  std::ofstream(path) << text;
  auto summary = obs::validate_artifact(path);
  EXPECT_TRUE(summary.ok()) << summary.error().message;
  return summary.ok() ? summary.value() : std::string();
}

/// validate_back, then read_artifact's decode of the same file.
inline obs::ArtifactFile read_back(const std::string& name,
                                   const std::string& text) {
  validate_back(name, text);
  auto file = obs::read_artifact(temp_path(name));
  EXPECT_TRUE(file.ok()) << file.error().message;
  return file.ok() ? file.value() : obs::ArtifactFile{};
}

}  // namespace mntp::test
