// The bench writer (bench/bench_common.h `Report`): text is escaped, counts
// and ns are exact integers, a failed gate or band prints FAIL and exits 1,
// and a sweep's smoke and full runs write two different files.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_common.h"

namespace portus::bench {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / strf("portus-report-test-{}", getpid());
    setenv("PORTUS_BENCH_RESULTS", dir_.c_str(), 1);
  }
  void TearDown() override {
    unsetenv("PORTUS_BENCH_RESULTS");
    std::filesystem::remove_all(dir_);
  }

  static std::string read(const std::string& path) {
    std::ifstream in{path};
    std::stringstream s;
    s << in.rdbuf();
    return s.str();
  }

  std::filesystem::path dir_;
};

TEST_F(ReportTest, EscapesTextAndWritesIntegersExactly) {
  Report report{"writer_test", "writer", false};
  report.param("note", "say \"hi\" \\ \n\t\x01");
  auto& rows =
      report.table("rows", {{"count"}, {"elapsed_ns", kNs}, {"ratio", kReal, 2, "x"}});
  constexpr std::uint64_t kAbove53 = (std::uint64_t{1} << 53) + 1;  // no double holds it
  rows.add({kAbove53, Duration{static_cast<Duration::rep>(kAbove53)}, 2.53});

  testing::internal::CaptureStdout();
  EXPECT_EQ(report.finish(), 0);
  const auto screen = testing::internal::GetCapturedStdout();
  EXPECT_NE(screen.find("2.53x"), std::string::npos) << screen;
  EXPECT_NE(screen.find("writer test acceptance checks passed"), std::string::npos) << screen;

  const auto json = read(report.path());
  EXPECT_NE(json.find(R"("bench": "writer_test",)"), std::string::npos) << json;
  EXPECT_NE(json.find(R"("params": {"note": "say \"hi\" \\ \u000a\u0009\u0001"})"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(R"({"count": 9007199254740993, "elapsed_ns": 9007199254740993, )"
                      R"("ratio": 2.53})"),
            std::string::npos)
      << json;
}

TEST_F(ReportTest, FailedGatePrintsFailAndExitsOne) {
  Report report{"writer_test", "writer", false};
  report.require(true, "a bar that was met");
  report.require(false, "the bar was missed");
  report.require_band("a met band", 5.9, 5.8, 0.2);
  report.require_band("peak (GB/s)", 6.0, 5.8, 0.02 * 5.8);
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(report.finish(), 1);
  const auto err = testing::internal::GetCapturedStderr();
  const auto screen = testing::internal::GetCapturedStdout();
  EXPECT_EQ(err,
            "FAIL: the bar was missed\n"
            "FAIL: peak (GB/s) 6 is outside the paper's 5.8 +- 0.116\n");
  EXPECT_EQ(screen.find("acceptance checks passed"), std::string::npos) << screen;
}

TEST_F(ReportTest, SmokeAndFullRunsWriteTwoFiles) {
  Report full{"writer_test", "writer", false};
  Report smoke{"writer_test", "writer", true};
  EXPECT_EQ(std::filesystem::path{full.path()}.filename(), "BENCH_writer.json");
  EXPECT_EQ(std::filesystem::path{smoke.path()}.filename(), "BENCH_writer_smoke.json");
  // A paper binary's artifact is named after it.
  EXPECT_EQ(std::filesystem::path{Report{"fig11_checkpoint"}.path()}.filename(),
            "BENCH_fig11_checkpoint.json");
  testing::internal::CaptureStdout();
  EXPECT_EQ(full.finish(), 0);
  EXPECT_EQ(smoke.finish(), 0);
  testing::internal::GetCapturedStdout();
  EXPECT_NE(read(full.path()).find(R"("smoke": false)"), std::string::npos);
  EXPECT_NE(read(smoke.path()).find(R"("smoke": true)"), std::string::npos);
}

}  // namespace
}  // namespace portus::bench
