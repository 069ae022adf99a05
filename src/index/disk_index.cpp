#include "index/disk_index.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <deque>
#include <future>
#include <iterator>
#include <string_view>

#include "common/fmt.hpp"
#include "common/serial.hpp"
#include "common/thread_pool.hpp"
#include "storage/io_retry.hpp"

namespace debar::index {

namespace {

/// Detach the device's timing model for the duration of a bulk operation
/// (SimClock/DiskModel are single-threaded); reattached on every exit
/// path. The operation then charges the model the one-pass access
/// sequence explicitly.
class ModelDetachGuard {
 public:
  explicit ModelDetachGuard(storage::BlockDevice& device)
      : device_(device), model_(device.model()) {
    device_.attach_model(nullptr);
  }
  ~ModelDetachGuard() { device_.attach_model(model_); }
  ModelDetachGuard(const ModelDetachGuard&) = delete;
  ModelDetachGuard& operator=(const ModelDetachGuard&) = delete;

  [[nodiscard]] sim::DiskModel* model() const noexcept { return model_; }

 private:
  storage::BlockDevice& device_;
  sim::DiskModel* model_;
};

/// Run `fn` on a pool worker, or, without a pool, on the caller when its
/// future is first waited on.
template <typename Fn>
auto launch(ThreadPool* pool, Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
  if (pool != nullptr) return pool->submit(std::forward<Fn>(fn));
  return std::async(std::launch::deferred, std::forward<Fn>(fn));
}

/// Wait for a task a pool runs; a deferred one is dropped unrun. Pool
/// tasks use the index, so none may outlive the operation.
template <typename T>
void settle(std::future<T>& f) {
  if (f.valid() &&
      f.wait_for(std::chrono::seconds(0)) != std::future_status::deferred) {
    f.wait();
  }
}

/// The bulk operations' input check: fingerprints ascending, and the
/// first home bucket not past the last (one routing prefix).
template <typename T, typename FpOf>
Status check_sorted(const DiskIndex& idx, std::span<const T> input,
                    FpOf fp_of, std::string_view op) {
  for (std::size_t i = 1; i < input.size(); ++i) {
    if (fp_of(input[i]) < fp_of(input[i - 1])) {
      return {Errc::kInvalidArgument, debar::format("{} input not sorted", op)};
    }
  }
  if (!input.empty() &&
      idx.bucket_of(fp_of(input.front())) > idx.bucket_of(fp_of(input.back()))) {
    return {Errc::kInvalidArgument,
            debar::format("{} input spans mixed routing prefixes", op)};
  }
  return Status::Ok();
}

/// Entries per 512-byte block and the block-local layout:
///   [u16 count][count * 25-byte entries][padding]
void serialize_block(std::span<const IndexEntry> entries,
                     std::span<Byte> out) {
  assert(out.size() == kIndexBlockSize);
  assert(entries.size() <= kEntriesPerIndexBlock);
  std::fill(out.begin(), out.end(), Byte{0});
  std::vector<Byte> buf;
  buf.reserve(kIndexBlockSize);
  ByteWriter w(buf);
  w.u16(static_cast<std::uint16_t>(entries.size()));
  for (const IndexEntry& e : entries) {
    w.fingerprint(e.fp);
    w.container_id(e.container);
  }
  std::copy(buf.begin(), buf.end(), out.begin());
}

}  // namespace

SpanGeom span_geom(std::uint64_t span, std::uint64_t io_buckets,
                   std::uint64_t bucket_count) noexcept {
  SpanGeom g;
  g.a = span * io_buckets;
  g.lo = (g.a == 0) ? 0 : g.a - 1;
  g.hi = std::min(bucket_count, g.a + io_buckets + 1);
  g.home_end = std::min(bucket_count, g.a + io_buckets);
  return g;
}

std::uint64_t span_count(std::uint64_t io_buckets,
                         std::uint64_t bucket_count) noexcept {
  return (bucket_count + io_buckets - 1) / io_buckets;
}

std::vector<ShardSpans> shard_plan(std::uint64_t spans, std::size_t workers) {
  const std::uint64_t shards =
      std::max<std::uint64_t>(std::min<std::uint64_t>(workers, spans), 1);
  std::vector<ShardSpans> plan(shards);
  for (std::uint64_t w = 0; w < shards; ++w) {
    plan[w] = {spans * w / shards, spans * (w + 1) / shards};
  }
  return plan;
}

Result<DiskIndex> DiskIndex::create(
    std::unique_ptr<storage::BlockDevice> device, DiskIndexParams params) {
  if (device == nullptr) {
    return Error{Errc::kInvalidArgument, "null device"};
  }
  if (!params.valid()) {
    return Error{Errc::kInvalidArgument,
                 debar::format("bad index params: n={} skip={} blocks={}",
                             params.prefix_bits, params.skip_bits,
                             params.blocks_per_bucket)};
  }
  // Zero the whole address space: zeroed blocks parse as empty buckets.
  if (Status s = device->resize(0); !s.ok()) return Error{s.code(), s.message()};
  if (Status s = device->resize(params.index_bytes()); !s.ok()) {
    return Error{s.code(), s.message()};
  }
  return DiskIndex(std::move(device), params);
}

Result<DiskIndex> DiskIndex::open(std::unique_ptr<storage::BlockDevice> device,
                                  DiskIndexParams params) {
  if (device == nullptr) {
    return Error{Errc::kInvalidArgument, "null device"};
  }
  if (!params.valid()) {
    return Error{Errc::kInvalidArgument, "bad index params"};
  }
  if (device->size() != params.index_bytes()) {
    return Error{Errc::kCorrupt,
                 debar::format("index device is {} bytes, params imply {}",
                               device->size(), params.index_bytes())};
  }
  DiskIndex idx(std::move(device), params);
  const Result<IndexStats> stats = idx.stats();
  if (!stats.ok()) return stats.error();
  idx.entry_count_ = stats.value().entries;
  return idx;
}

Bucket DiskIndex::parse_bucket(ByteSpan data) const {
  assert(data.size() == params_.bucket_bytes());
  Bucket b;
  for (unsigned blk = 0; blk < params_.blocks_per_bucket; ++blk) {
    ByteReader r(data.subspan(blk * kIndexBlockSize, kIndexBlockSize));
    const std::uint16_t count = r.u16();
    if (count == 0) break;  // blocks fill in order; empty block ends bucket
    const std::uint16_t n =
        std::min<std::uint16_t>(count, kEntriesPerIndexBlock);
    for (std::uint16_t i = 0; i < n; ++i) {
      IndexEntry e;
      e.fp = r.fingerprint();
      e.container = r.container_id();
      b.entries.push_back(e);
    }
    if (count < kEntriesPerIndexBlock) break;  // partially filled last block
  }
  return b;
}

void DiskIndex::serialize_bucket(const Bucket& b, std::span<Byte> out) const {
  assert(out.size() == params_.bucket_bytes());
  assert(b.entries.size() <= params_.bucket_capacity());
  std::size_t taken = 0;
  for (unsigned blk = 0; blk < params_.blocks_per_bucket; ++blk) {
    const std::size_t n =
        std::min(kEntriesPerIndexBlock, b.entries.size() - taken);
    serialize_block(std::span<const IndexEntry>(b.entries).subspan(taken, n),
                    out.subspan(blk * kIndexBlockSize, kIndexBlockSize));
    taken += n;
    if (taken == b.entries.size() && n < kEntriesPerIndexBlock) {
      // Remaining blocks stay zero; also zero them on rewrite.
      for (unsigned z = blk + 1; z < params_.blocks_per_bucket; ++z) {
        std::fill_n(out.begin() + z * kIndexBlockSize, kIndexBlockSize,
                    Byte{0});
      }
      break;
    }
  }
}

Result<Bucket> DiskIndex::read_bucket(std::uint64_t idx) const {
  std::vector<Byte> buf(params_.bucket_bytes());
  if (Status s = storage::read_with_retry(*device_, idx * params_.bucket_bytes(),
                                          std::span<Byte>(buf));
      !s.ok()) {
    return Error{s.code(), s.message()};
  }
  return parse_bucket(ByteSpan(buf.data(), buf.size()));
}

Status DiskIndex::write_bucket(std::uint64_t idx, const Bucket& b) {
  std::vector<Byte> buf(params_.bucket_bytes());
  serialize_bucket(b, std::span<Byte>(buf));
  // Bucket writes ride the shared retry policy: a transiently failing
  // device must not abort an SIU round when a re-issue would land it.
  return storage::write_with_retry(*device_, idx * params_.bucket_bytes(),
                                   ByteSpan(buf.data(), buf.size()));
}

Status DiskIndex::read_bucket_range(std::uint64_t first, std::uint64_t count,
                                    std::vector<Bucket>& out) const {
  const std::uint64_t bb = params_.bucket_bytes();
  std::vector<Byte> buf(count * bb);
  if (Status s = storage::read_with_retry(*device_, first * bb,
                                          std::span<Byte>(buf));
      !s.ok()) {
    return s;
  }
  out.clear();
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(parse_bucket(ByteSpan(buf.data() + i * bb, bb)));
  }
  return Status::Ok();
}

Status DiskIndex::write_bucket_range(std::uint64_t first,
                                     std::span<const Bucket> buckets) {
  const std::uint64_t bb = params_.bucket_bytes();
  std::vector<Byte> buf(buckets.size() * bb);
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    serialize_bucket(buckets[i], std::span<Byte>(buf.data() + i * bb, bb));
  }
  return storage::write_with_retry(*device_, first * bb,
                                   ByteSpan(buf.data(), buf.size()));
}

Result<ContainerId> DiskIndex::lookup(const Fingerprint& fp) const {
  const std::uint64_t home = bucket_of(fp);
  Result<Bucket> rb = read_bucket(home);
  if (!rb.ok()) return rb.error();
  if (auto id = rb.value().find(fp)) return *id;

  // The entry may have overflowed next door. A miss reads both
  // neighbours even when the home bucket has room, so every miss costs
  // the same three random reads; the Venti-style baseline's modeled
  // lookup cost is charged this way.
  for (const std::uint64_t nb : {home - 1, home + 1}) {
    if (nb >= params_.bucket_count()) continue;  // edge bucket
    Result<Bucket> rn = read_bucket(nb);
    if (!rn.ok()) return rn.error();
    if (auto id = rn.value().find(fp)) return *id;
  }
  return Error{Errc::kNotFound, "fingerprint not in index"};
}

Status DiskIndex::insert(const Fingerprint& fp, ContainerId id) {
  const std::uint64_t home = bucket_of(fp);
  Result<Bucket> rb = read_bucket(home);
  if (!rb.ok()) return rb.status();
  Bucket& b = rb.value();
  // The duplicate check covers the whole neighbourhood, where an earlier
  // overflow may have put the entry.
  const bool left_first = (rng_() & 1) != 0;
  const std::uint64_t order[2] = {left_first ? home - 1 : home + 1,
                                  left_first ? home + 1 : home - 1};
  if (b.find(fp)) {
    return {Errc::kInvalidArgument, "duplicate fingerprint"};
  }
  Result<Bucket> neighbours[2] = {Error{Errc::kNotFound, ""},
                                  Error{Errc::kNotFound, ""}};
  for (int i = 0; i < 2; ++i) {
    if (order[i] >= params_.bucket_count()) continue;  // edge bucket
    neighbours[i] = read_bucket(order[i]);
    if (!neighbours[i].ok()) return neighbours[i].status();
    if (neighbours[i].value().find(fp)) {
      return {Errc::kInvalidArgument, "duplicate fingerprint"};
    }
  }

  if (!bucket_full(b)) {
    b.entries.push_back({fp, id});
    if (Status s = write_bucket(home, b); !s.ok()) return s;
    ++entry_count_;
    return Status::Ok();
  }
  // Overflow: the random-order neighbour with space takes the entry.
  for (int i = 0; i < 2; ++i) {
    if (order[i] >= params_.bucket_count() || !neighbours[i].ok()) continue;
    if (!bucket_full(neighbours[i].value())) {
      neighbours[i].value().entries.push_back({fp, id});
      if (Status s = write_bucket(order[i], neighbours[i].value()); !s.ok()) {
        return s;
      }
      ++entry_count_;
      return Status::Ok();
    }
  }
  needs_scaling_ = true;
  return {Errc::kFull,
          debar::format("bucket {} and both neighbours are full", home)};
}

Status DiskIndex::match_fingerprints_in_span(
    std::span<const Fingerprint> fingerprints,
    const std::vector<Bucket>& span_buckets, std::uint64_t lo, std::uint64_t a,
    std::uint64_t home_end, std::size_t& qi,
    const std::function<void(std::size_t, ContainerId)>& on_found) const {
  const std::uint64_t nb = params_.bucket_count();
  while (qi < fingerprints.size()) {
    const std::uint64_t home = bucket_of(fingerprints[qi]);
    if (home >= home_end) break;
    if (home < a) {
      return {Errc::kInvalidArgument,
              "bulk_lookup bucket order regressed (mixed routing prefixes?)"};
    }
    const Bucket& b = span_buckets[home - lo];
    if (auto id = b.find(fingerprints[qi])) {
      on_found(qi, *id);
    } else {
      // Neighbour buckets are already in memory: checking them
      // unconditionally costs nothing.
      for (const std::uint64_t n : {home - 1, home + 1}) {
        if (n >= nb) continue;
        if (auto id = span_buckets[n - lo].find(fingerprints[qi])) {
          on_found(qi, *id);
          break;
        }
      }
    }
    ++qi;
  }
  return Status::Ok();
}

Status DiskIndex::bulk_lookup(
    std::span<const Fingerprint> fingerprints,
    const std::function<void(std::size_t, ContainerId)>& on_found,
    std::uint64_t io_buckets, ThreadPool* pool) const {
  const std::uint64_t nb = params_.bucket_count();
  io_buckets = std::max<std::uint64_t>(io_buckets, 3);
  if (Status s = check_sorted(
          *this, fingerprints,
          [](const Fingerprint& fp) -> const Fingerprint& { return fp; },
          "bulk_lookup");
      !s.ok()) {
    return s;
  }

  // Each shard owns a contiguous, span-aligned bucket range and the
  // (contiguous, because the input is sorted) slice of fingerprints homed
  // there. Shards only ever read, and read margins overlapping a
  // neighbouring shard are harmless, so no synchronization is needed
  // beyond the final join. One shard runs on the caller.
  const std::vector<ShardSpans> plan = shard_plan(
      span_count(io_buckets, nb), pool == nullptr ? 1 : pool->size());
  if (plan.size() < 2) pool = nullptr;
  const auto at_or_after = [&](std::uint64_t bucket) {
    return static_cast<std::size_t>(std::distance(
        fingerprints.begin(),
        std::partition_point(
            fingerprints.begin(), fingerprints.end(),
            [&](const Fingerprint& fp) { return bucket_of(fp) < bucket; })));
  };

  ModelDetachGuard metering(*device_);
  std::vector<std::future<Status>> pending;
  pending.reserve(plan.size());
  for (const ShardSpans& shard : plan) {
    // fp indices stay global: the shard walks the input from the first
    // fingerprint of its slice to the end of the slice.
    const std::size_t fp_begin = at_or_after(shard.first * io_buckets);
    const auto slice =
        fingerprints.first(at_or_after(std::min(nb, shard.end * io_buckets)));
    pending.push_back(launch(pool, [this, shard, slice, fp_begin, &on_found,
                                    io_buckets, nb]() -> Status {
      std::vector<Bucket> span_buckets;
      std::size_t qi = fp_begin;
      for (std::uint64_t s = shard.first; s < shard.end; ++s) {
        const SpanGeom g = span_geom(s, io_buckets, nb);
        if (Status st = read_bucket_range(g.lo, g.hi - g.lo, span_buckets);
            !st.ok()) {
          return st;
        }
        if (Status st = match_fingerprints_in_span(
                slice, span_buckets, g.lo, g.a, g.home_end, qi, on_found);
            !st.ok()) {
          return st;
        }
      }
      return Status::Ok();
    }));
  }
  Status overall = Status::Ok();
  for (auto& fut : pending) {
    // First failing shard in shard order wins: deterministic error report.
    if (Status st = fut.get(); overall.ok() && !st.ok()) overall = st;
  }
  if (!overall.ok()) return overall;
  replay_serial_scan_metering(metering.model(), io_buckets, /*rmw=*/false);
  return Status::Ok();
}

Status DiskIndex::place_entries_in_span(std::span<const IndexEntry> entries,
                                        std::vector<Bucket>& span_buckets,
                                        std::uint64_t lo, std::uint64_t a,
                                        std::uint64_t home_end,
                                        std::size_t& qi,
                                        bool& overflow_failure,
                                        std::uint64_t* inserted,
                                        std::vector<std::size_t>* failed) {
  const std::uint64_t nb = params_.bucket_count();
  while (qi < entries.size()) {
    const IndexEntry& e = entries[qi];
    const std::uint64_t home = bucket_of(e.fp);
    if (home >= home_end) break;
    if (home < a) {
      return {Errc::kInvalidArgument,
              "bulk_insert bucket order regressed (mixed routing prefixes?)"};
    }
    Bucket& b = span_buckets[home - lo];
    // Duplicate check over the whole neighbourhood (all in memory).
    bool duplicate = b.find(e.fp).has_value();
    for (const std::uint64_t n : {home - 1, home + 1}) {
      if (duplicate || n >= nb) continue;
      duplicate = span_buckets[n - lo].find(e.fp).has_value();
    }
    bool placed = false;
    if (!duplicate && !bucket_full(b)) {
      b.entries.push_back(e);
      placed = true;
    } else if (!duplicate) {
      const bool left_first = (rng_() & 1) != 0;
      const std::uint64_t order[2] = {left_first ? home - 1 : home + 1,
                                      left_first ? home + 1 : home - 1};
      for (const std::uint64_t n : order) {
        if (n >= nb) continue;
        Bucket& nbk = span_buckets[n - lo];
        if (!bucket_full(nbk)) {
          nbk.entries.push_back(e);
          placed = true;
          break;
        }
      }
    }
    if (placed) {
      ++entry_count_;
      if (inserted != nullptr) ++(*inserted);
    } else if (!duplicate) {
      overflow_failure = true;
      needs_scaling_ = true;
      if (failed != nullptr) failed->push_back(qi);
    }
    ++qi;
  }
  return Status::Ok();
}

void DiskIndex::replay_serial_scan_metering(sim::DiskModel* model,
                                            std::uint64_t io_buckets,
                                            bool rmw) const {
  if (model == nullptr) return;
  const std::uint64_t nb = params_.bucket_count();
  const std::uint64_t bb = params_.bucket_bytes();
  for (std::uint64_t s = 0; s < span_count(io_buckets, nb); ++s) {
    const SpanGeom g = span_geom(s, io_buckets, nb);
    model->access(g.lo * bb, (g.hi - g.lo) * bb);
    if (rmw) model->access(g.lo * bb, (g.hi - g.lo) * bb);
  }
}

Status DiskIndex::bulk_insert(std::span<const IndexEntry> entries,
                              std::uint64_t io_buckets,
                              std::uint64_t* inserted,
                              std::vector<std::size_t>* failed,
                              ThreadPool* pool) {
  const std::uint64_t nb = params_.bucket_count();
  io_buckets = std::max<std::uint64_t>(io_buckets, 3);
  if (inserted != nullptr) *inserted = 0;
  if (failed != nullptr) failed->clear();
  if (Status s = check_sorted(
          *this, entries,
          [](const IndexEntry& e) -> const Fingerprint& { return e.fp; },
          "bulk_insert");
      !s.ok()) {
    return s;
  }

  // Consecutive spans overlap by two buckets (a-1 and a of the later
  // one), so every span after the first gets those two from the merge
  // stage, which carries them over in memory, and the span before leaves
  // them for it to write. Prefetch therefore reads only [a+1, hi), never
  // a bucket a write-back still has to land. With a pool, prefetch runs
  // up to kPipelineDepth spans ahead on the workers; without one, each
  // span is read when the merge reaches it. Either way this thread writes
  // each span back after merging it, so without a pool a span is read,
  // merged and written before the next is read, as in a one-pass scan.
  struct Prefetched {
    Status status = Status::Ok();
    std::vector<Bucket> buckets;
  };
  const std::uint64_t spans = span_count(io_buckets, nb);
  ModelDetachGuard metering(*device_);
  std::deque<std::future<Prefetched>> prefetch;
  struct Settle {
    std::deque<std::future<Prefetched>>& prefetch;
    ~Settle() {
      for (std::future<Prefetched>& f : prefetch) settle(f);
    }
  } settle_on_exit{prefetch};

  const auto prefetch_span = [&](std::uint64_t s) {
    const SpanGeom g = span_geom(s, io_buckets, nb);
    const std::uint64_t first = (s == 0) ? g.lo : g.a + 1;
    prefetch.push_back(launch(pool, [this, first, last = g.hi] {
      Prefetched p;
      if (first < last) {
        p.status = read_bucket_range(first, last - first, p.buckets);
      }
      return p;
    }));
  };
  for (std::uint64_t s = 0; s < std::min<std::uint64_t>(spans, kPipelineDepth);
       ++s) {
    prefetch_span(s);
  }

  bool overflow_failure = false;
  std::size_t qi = 0;
  std::vector<Bucket> carry;  // buckets a-1 and a of the next span
  for (std::uint64_t s = 0; s < spans; ++s) {
    Prefetched p = prefetch.front().get();
    prefetch.pop_front();
    if (s + kPipelineDepth < spans) prefetch_span(s + kPipelineDepth);
    if (!p.status.ok()) return p.status;
    const SpanGeom g = span_geom(s, io_buckets, nb);
    std::vector<Bucket> span_buckets = std::move(carry);
    span_buckets.reserve(g.hi - g.lo);
    std::move(p.buckets.begin(), p.buckets.end(),
              std::back_inserter(span_buckets));
    assert(span_buckets.size() == g.hi - g.lo);
    if (Status st =
            place_entries_in_span(entries, span_buckets, g.lo, g.a,
                                  g.home_end, qi, overflow_failure, inserted,
                                  failed);
        !st.ok()) {
      return st;
    }
    carry.clear();
    if (s + 1 < spans) {
      carry.assign(std::make_move_iterator(span_buckets.end() - 2),
                   std::make_move_iterator(span_buckets.end()));
      span_buckets.resize(span_buckets.size() - 2);
    }
    if (Status st = write_bucket_range(g.lo, span_buckets); !st.ok()) {
      return st;
    }
  }

  replay_serial_scan_metering(metering.model(), io_buckets, /*rmw=*/true);
  if (overflow_failure) {
    return {Errc::kFull,
            "one or more bucket neighbourhoods full; capacity scaling needed"};
  }
  return Status::Ok();
}

Result<DiskIndex> DiskIndex::scaled(
    std::unique_ptr<storage::BlockDevice> new_device) const {
  Result<std::vector<IndexEntry>> entries = extract_sorted_entries(*this);
  if (!entries.ok()) return entries.error();

  DiskIndexParams p = params_;
  p.prefix_bits += 1;
  Result<DiskIndex> fresh = create(std::move(new_device), p);
  if (!fresh.ok()) return fresh;

  // Re-placing each entry by the first n+1 bits re-homes previously
  // overflowed entries exactly as Section 4.1 prescribes.
  if (Status s = fresh.value().bulk_insert(
          std::span<const IndexEntry>(entries.value()));
      !s.ok()) {
    return Error{s.code(), "scaling re-insert failed: " + s.message()};
  }
  return fresh;
}

Result<std::vector<DiskIndex>> DiskIndex::split(
    std::vector<std::unique_ptr<storage::BlockDevice>> devices) const {
  const std::size_t parts = devices.size();
  if (parts == 0 || (parts & (parts - 1)) != 0) {
    return Error{Errc::kInvalidArgument,
                 "split requires a power-of-two device count"};
  }
  unsigned w = 0;
  while ((std::size_t{1} << w) < parts) ++w;
  if (w >= params_.prefix_bits) {
    return Error{Errc::kInvalidArgument,
                 "cannot split into more parts than buckets"};
  }

  Result<std::vector<IndexEntry>> entries = extract_sorted_entries(*this);
  if (!entries.ok()) return entries.error();

  DiskIndexParams p = params_;
  p.prefix_bits -= w;
  p.skip_bits += w;

  std::vector<DiskIndex> out;
  out.reserve(parts);
  // Entries are fingerprint-sorted, so each part's slice is contiguous.
  std::size_t begin = 0;
  for (std::size_t k = 0; k < parts; ++k) {
    Result<DiskIndex> part = create(std::move(devices[k]), p);
    if (!part.ok()) return part.error();
    std::size_t end = begin;
    while (end < entries.value().size() &&
           (entries.value()[end].fp.prefix_bits(params_.skip_bits + w) &
            (parts - 1)) == k) {
      ++end;
    }
    if (Status s = part.value().bulk_insert(std::span<const IndexEntry>(
            entries.value().data() + begin, end - begin));
        !s.ok()) {
      return Error{s.code(),
                   debar::format("split part {} insert failed: {}", k,
                               s.message())};
    }
    begin = end;
    out.push_back(std::move(part).value());
  }
  if (begin != entries.value().size()) {
    return Error{Errc::kCorrupt, "split partition did not consume all entries"};
  }
  return out;
}

Result<IndexStats> DiskIndex::stats() const {
  IndexStats st;
  st.buckets = params_.bucket_count();
  std::vector<Bucket> span_buckets;
  const std::uint64_t io = 1024;
  for (std::uint64_t a = 0; a < st.buckets; a += io) {
    const std::uint64_t count = std::min(io, st.buckets - a);
    if (Status s = read_bucket_range(a, count, span_buckets); !s.ok()) {
      return Error{s.code(), s.message()};
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      const Bucket& b = span_buckets[i];
      st.entries += b.entries.size();
      if (bucket_full(b)) ++st.full_buckets;
      for (const IndexEntry& e : b.entries) {
        if (bucket_of(e.fp) != a + i) ++st.overflowed_entries;
      }
    }
  }
  st.utilization = static_cast<double>(st.entries) /
                   static_cast<double>(params_.entry_capacity());
  st.full_fraction = static_cast<double>(st.full_buckets) /
                     static_cast<double>(st.buckets);
  return st;
}

Result<std::vector<IndexEntry>> extract_sorted_entries(const DiskIndex& idx) {
  std::vector<IndexEntry> entries;
  entries.reserve(idx.entry_count());
  const std::uint64_t buckets = idx.params().bucket_count();
  for (std::uint64_t b = 0; b < buckets; ++b) {
    Result<Bucket> bucket = idx.read_bucket(b);
    if (!bucket.ok()) return bucket.error();
    entries.insert(entries.end(), bucket.value().entries.begin(),
                   bucket.value().entries.end());
  }
  std::sort(
      entries.begin(), entries.end(),
      [](const IndexEntry& a, const IndexEntry& b) { return a.fp < b.fp; });
  return entries;
}

}  // namespace debar::index
