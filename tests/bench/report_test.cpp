// Gate logic of the BENCH_*.json trajectories (bench/report.hpp) on
// fixture baselines: tolerances at and just past their edge in both
// directions, bars, and the baseline reader's rejections. Measures
// nothing, so it runs in every build configuration.
#include "report.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace debar::bench {
namespace {

class BenchReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("debar_bench_report_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes `text` as a baseline file and returns its path.
  std::string fixture(const std::string& name, const std::string& text) {
    const std::string path = (dir_ / name).string();
    std::ofstream(path) << text;
    return path;
  }

  /// A baseline whose metrics object is `metrics`.
  Baseline baseline(const std::string& metrics) {
    const std::string path = fixture(
        "baseline.json",
        "{\n  \"bench\": \"fixture\",\n  \"workload\": {\"n\": 1},\n"
        "  \"metrics\": {" + metrics + "}\n}\n");
    Result<Baseline> read = read_baseline(path);
    EXPECT_TRUE(read.ok()) << read.error().message;
    return read.ok() ? read.value() : Baseline{};
  }

  std::filesystem::path dir_;
};

Report measured(const std::string& metric, double value) {
  return {.bench = "fixture", .metrics = {{metric, number(value, 3)}}};
}

/// The verdicts' pass flags, in order.
std::vector<bool> passes(const std::vector<Verdict>& verdicts) {
  std::vector<bool> out;
  for (const Verdict& v : verdicts) out.push_back(v.pass);
  return out;
}

TEST_F(BenchReportTest, HigherIsBetterPassesAtToleranceAndFailsPastIt) {
  const Baseline base = baseline("\"speedup\": 8.0");
  const std::vector<Gate> gates = {
      {.metric = "speedup", .better = Better::kHigher, .tolerance = 0.25}};
  EXPECT_EQ(passes(apply_gates(measured("speedup", 6.0), gates, &base)),
            std::vector<bool>{true});
  const std::vector<Verdict> past =
      apply_gates(measured("speedup", 5.999), gates, &base);
  EXPECT_EQ(passes(past), std::vector<bool>{false});
  EXPECT_NE(past[0].line.find("speedup"), std::string::npos) << past[0].line;
}

TEST_F(BenchReportTest, LowerIsBetterPassesAtToleranceAndFailsPastIt) {
  const Baseline base = baseline("\"wire_bytes\": 1000");
  const std::vector<Gate> gates = {
      {.metric = "wire_bytes", .better = Better::kLower, .tolerance = 0.125}};
  EXPECT_EQ(passes(apply_gates(measured("wire_bytes", 1125), gates, &base)),
            std::vector<bool>{true});
  EXPECT_EQ(
      passes(apply_gates(measured("wire_bytes", 1125.001), gates, &base)),
      std::vector<bool>{false});
}

TEST_F(BenchReportTest, ZeroToleranceAllowsNoRegression) {
  const Baseline base = baseline("\"rotations\": 1");
  const std::vector<Gate> gates = {
      {.metric = "rotations", .better = Better::kLower, .tolerance = 0.0}};
  EXPECT_EQ(passes(apply_gates(measured("rotations", 1), gates, &base)),
            std::vector<bool>{true});
  EXPECT_EQ(passes(apply_gates(measured("rotations", 2), gates, &base)),
            std::vector<bool>{false});
}

TEST_F(BenchReportTest, BarFailsWithoutRegression) {
  // Far above its baseline, yet below the absolute bar.
  const Baseline base = baseline("\"speedup\": 1.0");
  const std::vector<Gate> gates = {{.metric = "speedup",
                                    .better = Better::kHigher,
                                    .tolerance = 0.05,
                                    .bar = 3.0}};
  const std::vector<Verdict> verdicts =
      apply_gates(measured("speedup", 2.5), gates, &base);
  EXPECT_EQ(passes(verdicts), (std::vector<bool>{false, true}));
  EXPECT_NE(verdicts[0].line.find("bar"), std::string::npos);
  // Exactly at the bar passes, with or without a baseline.
  EXPECT_EQ(passes(apply_gates(measured("speedup", 3.0), gates, nullptr)),
            std::vector<bool>{true});
}

TEST_F(BenchReportTest, LowerIsBetterBarIsAnUpperBound) {
  const std::vector<Gate> gates = {
      {.metric = "rotations", .better = Better::kLower, .bar = 31}};
  EXPECT_EQ(passes(apply_gates(measured("rotations", 31), gates, nullptr)),
            std::vector<bool>{true});
  EXPECT_EQ(passes(apply_gates(measured("rotations", 32), gates, nullptr)),
            std::vector<bool>{false});
}

TEST_F(BenchReportTest, MissingFileFailsWithItsPath) {
  const std::string path = (dir_ / "absent.json").string();
  const Result<Baseline> read = read_baseline(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.error().message.find(path), std::string::npos)
      << read.error().message;
}

TEST_F(BenchReportTest, MissingMetricFailsWithItsName) {
  const Baseline base = baseline("\"other\": 2.0");
  const std::vector<Gate> gates = {
      {.metric = "speedup", .better = Better::kHigher, .tolerance = 0.05}};
  const std::vector<Verdict> verdicts =
      apply_gates(measured("speedup", 2.0), gates, &base);
  ASSERT_EQ(passes(verdicts), std::vector<bool>{false});
  EXPECT_NE(verdicts[0].line.find("speedup"), std::string::npos)
      << verdicts[0].line;
}

TEST_F(BenchReportTest, DuplicateMetricFailsWithItsName) {
  const std::string path = fixture(
      "dup.json", "{\"metrics\": {\"speedup\": 2.0, \"speedup\": 3.0}}");
  const Result<Baseline> read = read_baseline(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.error().message.find("speedup"), std::string::npos)
      << read.error().message;
}

TEST_F(BenchReportTest, NonNumericValueFailsWithItsName) {
  for (const std::string value : {"\"fast\"", "8.0x", "null"}) {
    const Baseline base = baseline("\"speedup\": " + value);
    const std::vector<Gate> gates = {
        {.metric = "speedup", .better = Better::kHigher, .tolerance = 0.05}};
    const std::vector<Verdict> verdicts =
        apply_gates(measured("speedup", 2.0), gates, &base);
    ASSERT_EQ(passes(verdicts), std::vector<bool>{false}) << value;
    EXPECT_NE(verdicts[0].line.find("speedup"), std::string::npos)
        << verdicts[0].line;
  }
}

TEST_F(BenchReportTest, MissingMetricsObjectFailsWithThePath) {
  const std::string path = fixture("old.json", "{\"speedup\": 1.6695}\n");
  const Result<Baseline> read = read_baseline(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.error().message.find(path), std::string::npos);
}

TEST_F(BenchReportTest, WrittenReportReadsBackAsItsBaseline) {
  const Report report{
      .bench = "fixture",
      .workload = {{"streams", count(8)}},
      .runs = {{{"lane", label("a")}, {"mb_per_s", number(1.25, 1)}},
               {{"lane", label("b")}, {"mb_per_s", number(2.5, 1)}}},
      .metrics = {{"best_lane", label("b")},
                  {"speedup", number(2.0004, 3)},
                  {"wire_bytes", count(692156)}}};
  const std::string path = fixture("written.json", to_json(report));
  const Result<Baseline> read = read_baseline(path);
  ASSERT_TRUE(read.ok()) << read.error().message;
  const Baseline& base = read.value();
  EXPECT_EQ(base.metrics.size(), 3u);
  EXPECT_FALSE(base.value("best_lane").ok());
  ASSERT_TRUE(base.value("speedup").ok());
  EXPECT_EQ(base.value("speedup").value(), 2.0);  // as printed
  ASSERT_TRUE(base.value("wire_bytes").ok());
  EXPECT_EQ(base.value("wire_bytes").value(), 692156.0);
}

}  // namespace
}  // namespace debar::bench
