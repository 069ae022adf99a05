#include "trace.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <utility>

namespace debar::bench {

namespace {

constexpr unsigned kSubBits = 4;  // 16 sub-buckets per octave
constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;

std::size_t bucket_of(std::uint64_t v) {
  if (v < kSub) return static_cast<std::size_t>(v);
  const unsigned octave = 63u - static_cast<unsigned>(std::countl_zero(v));
  const std::uint64_t sub = (v >> (octave - kSubBits)) & (kSub - 1);
  return static_cast<std::size_t>(kSub + (octave - kSubBits) * kSub + sub);
}

double bucket_mid(std::size_t index) {
  if (index < kSub) return static_cast<double>(index);
  const std::uint64_t octave = (index - kSub) / kSub + kSubBits;
  const std::uint64_t sub = (index - kSub) % kSub;
  const double lo = static_cast<double>((kSub + sub) << (octave - kSubBits));
  const double hi =
      static_cast<double>((kSub + sub + 1) << (octave - kSubBits));
  return (lo + hi) / 2;
}

/// Total length of the union of `intervals` clipped to [lo, hi).
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>>
                              intervals,
                          std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b <= a) continue;
    total += b - a;
    cursor = b;
  }
  return total;
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void LogHistogram::record(std::uint64_t value) {
  const std::size_t b = bucket_of(value);
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  ++count_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen > rank) return bucket_mid(b);
  }
  return bucket_mid(buckets_.size() - 1);
}

std::uint32_t Tracer::open(std::string name, std::uint32_t parent) {
  const std::int64_t t = now_ns();
  spans_.push_back({std::move(name), parent, t, t, iteration_});
  children_.emplace_back();
  const auto id = static_cast<std::uint32_t>(spans_.size());
  if (parent != 0) children_[parent - 1].push_back(id);
  return id;
}

void Tracer::close(std::uint32_t id) {
  assert(id >= 1 && id <= spans_.size());
  spans_[id - 1].end_ns = now_ns();
}

std::vector<std::uint32_t> Tracer::subtree(std::uint32_t root) const {
  std::vector<std::uint32_t> out{root};
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto& kids = children_[out[i] - 1];
    out.insert(out.end(), kids.begin(), kids.end());
  }
  return out;
}

std::map<std::string, double> Tracer::self_seconds(std::uint32_t root) const {
  std::map<std::string, double> out;
  for (const std::uint32_t id : subtree(root)) {
    const Span& s = at(id);
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const std::uint32_t k : children_[id - 1]) {
      kids.emplace_back(at(k).start_ns, at(k).end_ns);
    }
    const std::int64_t self =
        (s.end_ns - s.start_ns) - union_length(kids, s.start_ns, s.end_ns);
    out[s.name] += static_cast<double>(self) * 1e-9;
  }
  return out;
}

double Tracer::leaf_coverage(std::uint32_t root) const {
  std::int64_t windows = 0;
  std::int64_t covered = 0;
  for (const std::uint32_t window : children_[root - 1]) {
    const Span& w = at(window);
    std::vector<std::pair<std::int64_t, std::int64_t>> leaves;
    for (const std::uint32_t id : subtree(window)) {
      if (children_[id - 1].empty()) {
        leaves.emplace_back(at(id).start_ns, at(id).end_ns);
      }
    }
    windows += w.end_ns - w.start_ns;
    covered += union_length(leaves, w.start_ns, w.end_ns);
  }
  return windows > 0 ? static_cast<double>(covered) /
                           static_cast<double>(windows)
                     : 0.0;
}

Status Tracer::write_jsonl(const std::filesystem::path& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return {Errc::kIoError, "cannot open span file " + path.string()};
  }
  const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%u,\"name\":\"%s\",\"iteration\":%u,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 i + 1, s.parent, s.name.c_str(), s.iteration,
                 static_cast<double>(s.start_ns - epoch) / 1e3,
                 static_cast<double>(s.end_ns - epoch) / 1e3);
  }
  const bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    return {Errc::kIoError, "cannot write span file " + path.string()};
  }
  return Status::Ok();
}

}  // namespace debar::bench
