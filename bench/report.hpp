// One report schema and one gate checker for the BENCH_*.json
// trajectories. A gate binary measures, fills a Report, declares the
// Gates its metrics must pass, and leaves its command line to
// bench_main(). A report reads:
//
//   {
//     "bench": "<name>",
//     "workload": {<the fixed inputs>},
//     "runs": [                                   (optional)
//       {<one row per measured configuration>},
//       ...
//     ],
//     "metrics": {
//       "<name>": <number or label>,
//       ...
//     }
//   }
//
// Gates read "metrics" only: a baseline is a checked-in report, and a
// gated metric must appear in its metrics once, as a number.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace debar::bench {

/// One JSON scalar as the report prints it. `number` is the unrounded
/// value the gates compare; a label has none.
struct Value {
  std::string json;
  std::optional<double> number{};
};

Value number(double v, int decimals);
Value count(std::uint64_t v);
Value label(std::string_view s);  // printed quoted, unescaped

struct Field {
  std::string key;
  Value value;
};
using Fields = std::vector<Field>;

struct Report {
  std::string bench;
  Fields workload{};
  std::vector<Fields> runs{};  // written only when non-empty
  Fields metrics{};
};

std::string to_json(const Report& report);

enum class Better { kHigher, kLower };

/// One gated metric. `tolerance` is the largest regression against the
/// baseline, as a fraction of it: higher-is-better passes at
/// >= baseline * (1 - tolerance), lower-is-better at
/// <= baseline * (1 + tolerance). `bar` is an absolute bar (>= or <=),
/// applied with or without a baseline.
struct Gate {
  std::string metric;
  Better better = Better::kHigher;
  std::optional<double> tolerance{};
  std::optional<double> bar{};
};

/// The metrics of a checked-in report; a label reads as no number.
struct Baseline {
  std::string path;
  std::map<std::string, std::optional<double>> metrics;

  /// Fails if the metric is missing or not a number.
  Result<double> value(const std::string& metric) const;
};

/// Fails on a missing file, a missing or malformed metrics object, or a
/// metric named twice.
Result<Baseline> read_baseline(const std::string& path);

struct Verdict {
  bool pass = false;
  std::string line;
};

/// The one place a bar or a tolerance is applied: a verdict for each
/// gate's bar and, given a baseline, for each gate's tolerance.
std::vector<Verdict> apply_gates(const Report& measured,
                                 const std::vector<Gate>& gates,
                                 const Baseline* baseline);

struct Outcome {
  Report report;
  std::vector<Gate> gates;
};

/// A gate binary's command line; returns its exit code.
///   [--out <path>]   measure, apply the bars, and write the report to
///                    <path> (default `default_out`) if they pass
///   --check <path>   read the baseline at <path>, measure, and apply the
///                    bars and the tolerances
int bench_main(int argc, char** argv, const std::string& default_out,
               const std::function<Outcome()>& measure);

}  // namespace debar::bench
