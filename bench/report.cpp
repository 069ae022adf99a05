#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/fmt.hpp"

namespace debar::bench {

namespace {

/// A value in a verdict line: integers in full, fractions to ten digits.
std::string show(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string object(const Fields& fields) {
  std::string out = "{";
  for (const Field& f : fields) {
    out += (out.size() > 1 ? ", \"" : "\"") + f.key + "\": " + f.value.json;
  }
  return out + "}";
}

std::string trim(const std::string& s) {
  const std::size_t first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  return s.substr(first, s.find_last_not_of(" \t\r\n") - first + 1);
}

}  // namespace

Value number(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return {buf, v};
}

Value count(std::uint64_t v) {
  return {std::to_string(v), static_cast<double>(v)};
}

Value label(std::string_view s) { return {'"' + std::string(s) + '"'}; }

std::string to_json(const Report& report) {
  std::string out = "{\n  \"bench\": \"" + report.bench + "\",\n";
  out += "  \"workload\": " + object(report.workload) + ",\n";
  if (!report.runs.empty()) {
    out += "  \"runs\": [\n";
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
      out += "    " + object(report.runs[i]) +
             (i + 1 < report.runs.size() ? ",\n" : "\n");
    }
    out += "  ],\n";
  }
  out += "  \"metrics\": {\n";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Field& m = report.metrics[i];
    out += "    \"" + m.key + "\": " + m.value.json +
           (i + 1 < report.metrics.size() ? ",\n" : "\n");
  }
  return out + "  }\n}\n";
}

Result<double> Baseline::value(const std::string& metric) const {
  const auto it = metrics.find(metric);
  if (it == metrics.end()) {
    return Error{Errc::kNotFound,
                 debar::format("baseline {} has no metric '{}'", path,
                               metric)};
  }
  if (!it->second) {
    return Error{Errc::kCorrupt,
                 debar::format("baseline {}: metric '{}' is not a number",
                               path, metric)};
  }
  return *it->second;
}

Result<Baseline> read_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return Error{Errc::kNotFound, debar::format("baseline {} missing", path)};
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // The metrics object is flat, and its labels hold no ',' or '}'.
  const std::size_t key = text.find("\"metrics\"");
  const std::size_t open = text.find('{', key);
  const std::size_t close = text.find('}', open);
  if (key == std::string::npos || close == std::string::npos) {
    return Error{Errc::kCorrupt,
                 debar::format("baseline {} has no metrics object", path)};
  }
  Baseline baseline{path, {}};
  std::istringstream entries(text.substr(open + 1, close - open - 1));
  for (std::string entry; std::getline(entries, entry, ',');) {
    const std::size_t colon = entry.find(':');
    const std::string name = trim(entry.substr(0, colon));
    if (colon == std::string::npos || name.size() < 2 || name.front() != '"' ||
        name.back() != '"') {
      return Error{Errc::kCorrupt,
                   debar::format("baseline {}: malformed metric '{}'", path,
                                 trim(entry))};
    }
    // A number is a token that parses whole and finite; anything else,
    // such as a quoted label, reads as no number.
    const std::string token = trim(entry.substr(colon + 1));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    std::optional<double> value;
    if (!token.empty() && *end == '\0' && std::isfinite(v)) value = v;
    const std::string metric = name.substr(1, name.size() - 2);
    if (!baseline.metrics.emplace(metric, value).second) {
      return Error{Errc::kCorrupt,
                   debar::format("baseline {}: metric '{}' appears twice",
                                 path, metric)};
    }
  }
  return baseline;
}

std::vector<Verdict> apply_gates(const Report& measured,
                                 const std::vector<Gate>& gates,
                                 const Baseline* baseline) {
  std::vector<Verdict> verdicts;
  for (const Gate& gate : gates) {
    std::optional<double> v;
    for (const Field& m : measured.metrics) {
      if (m.key == gate.metric) v = m.value.number;
    }
    if (!v) {
      verdicts.push_back({false, gate.metric + ": not a measured number"});
      continue;
    }
    const bool higher = gate.better == Better::kHigher;
    const auto judge = [&](double limit, const std::string& why) {
      std::string line = gate.metric + " = " + show(*v) + ": needs ";
      line += (higher ? ">= " : "<= ") + show(limit) + " (" + why + ")";
      verdicts.push_back({higher ? *v >= limit : *v <= limit, line});
    };
    if (gate.bar) judge(*gate.bar, "bar");
    if (!gate.tolerance || baseline == nullptr) continue;
    const Result<double> base = baseline->value(gate.metric);
    if (!base.ok()) {
      verdicts.push_back({false, base.error().message});
      continue;
    }
    const double t = *gate.tolerance;
    judge(base.value() * (higher ? 1.0 - t : 1.0 + t),
          "within " + show(t * 100) + "% of baseline " + show(base.value()));
  }
  return verdicts;
}

int bench_main(int argc, char** argv, const std::string& default_out,
               const std::function<Outcome()>& measure) {
  std::string out = default_out;
  std::optional<std::string> check;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out = argv[++i];
    }
  }

  std::optional<Baseline> baseline;
  if (check) {
    Result<Baseline> read = read_baseline(*check);
    if (!read.ok()) {
      std::fprintf(stderr, "%s\n", read.error().message.c_str());
      return 1;
    }
    baseline = std::move(read).value();
  }

  const Outcome outcome = measure();
  const Baseline* base = baseline ? &*baseline : nullptr;
  bool pass = true;
  for (const Verdict& v : apply_gates(outcome.report, outcome.gates, base)) {
    std::fprintf(v.pass ? stdout : stderr, "%s: %s\n",
                 v.pass ? "pass" : "FAIL", v.line.c_str());
    pass = pass && v.pass;
  }
  if (!pass) return 1;
  if (check) return 0;

  std::ofstream file(out);
  if (!(file << to_json(outcome.report)).flush()) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

}  // namespace debar::bench
