// In-memory spans and log-bucketed histograms for the bench's traced runs.
//
// Spans are recorded from the bench's own code around each call into a
// layer (the library itself is not instrumented). They are kept in memory
// and written out as JSON lines when the run ends. A layer's busy time is
// the self time of its spans: duration minus the part of that interval its
// child spans cover.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace debar::bench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Histogram with 16 logarithmic sub-buckets per power of two (~6%
/// resolution); values below 16 are exact.
class LogHistogram {
 public:
  void record(std::uint64_t value);
  /// Value at quantile q in [0, 1] (bucket midpoint); 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

struct Span {
  std::string name;
  std::uint32_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t iteration = 0;
};

/// Single-threaded span recorder. Span ids are 1-based indices into
/// spans(); 0 means "no parent".
class Tracer {
 public:
  [[nodiscard]] std::uint32_t open(std::string name, std::uint32_t parent);
  void close(std::uint32_t id);

  /// Iteration tag stamped on spans opened from now on.
  void set_iteration(std::uint32_t iteration) noexcept {
    iteration_ = iteration;
  }

  /// Self time in seconds of every span under `root` (inclusive), summed
  /// by span name.
  [[nodiscard]] std::map<std::string, double> self_seconds(
      std::uint32_t root) const;

  /// Share of the time in `root`'s child spans (the timed windows of an
  /// iteration) that leaf spans beneath them (the layer spans) cover.
  [[nodiscard]] double leaf_coverage(std::uint32_t root) const;

  /// One JSON object per line: id, parent, name, iteration, start_us,
  /// end_us (relative to the first span).
  [[nodiscard]] Status write_jsonl(const std::filesystem::path& path) const;

 private:
  [[nodiscard]] std::vector<std::uint32_t> subtree(std::uint32_t root) const;
  [[nodiscard]] const Span& at(std::uint32_t id) const {
    return spans_[id - 1];
  }

  std::vector<Span> spans_;
  std::vector<std::vector<std::uint32_t>> children_;
  std::uint32_t iteration_ = 0;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::uint32_t parent)
      : tracer_(tracer), id_(tracer.open(std::move(name), parent)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

}  // namespace debar::bench
