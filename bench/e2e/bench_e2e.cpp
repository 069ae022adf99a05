// bench_e2e: wall-clock end-to-end benchmark of the whole DEBAR path —
// back up, run dedup-2, restore — with an outside-in per-layer trace.
//
//   bench_e2e --workload <first-write|second-write|restore-aged|cluster-daily>
//             --seed <n> [--seconds <s>] [--dir <scratch>]
//             [--trace <spans.jsonl>] [--smoke]
//
// A measured iteration is one backup -> dedup-2 -> restore cycle (on
// restore-aged, whose backups run in set-up, restores only) driven through
// the public API by a single client thread (closed loop: the next job
// starts only after the previous one returns). After one unrecorded
// warm-up, a run repeats "lifetimes" — a set-up plus a fixed number of
// iterations on fresh state — until --seconds have passed (at least three),
// so set-up is timed several times and every lifetime does identical,
// seed-determined work. Each lifetime's director records, stored bytes and
// modeled clocks are hashed;
// all lifetimes of a run must agree, and every restore is byte-compared
// against the generated data outside the timed window. Wrong output exits
// with status 3 and publishes nothing.
//
// With --trace, odd lifetimes run traced: the bench calls each layer's
// public function itself (Chunker::chunk, Sha1::hash_batch, FileStore
// offer/receive/end_job, ChunkStore sil/store/siu/read_chunk, the cluster
// phase hook) under spans, on devices wrapped in a CountingDevice. Even
// lifetimes stay untraced, so the same run checks the traced path against
// the API path (identical digests) and measures the tracing overhead.
//
// stdout: one JSON object, every recorded metric by name (see README.md
// for the schema; units and directions are given in BENCHMARK.json only).
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "chunking/rabin_chunker.hpp"
#include "common/sha1.hpp"
#include "core/backup_engine.hpp"
#include "core/cluster.hpp"
#include "counting_device.hpp"
#include "storage/block_device.hpp"
#include "trace.hpp"
#include "workload/file_tree.hpp"
#include "workload/fingerprint_stream.hpp"

namespace {

using namespace debar;
using bench::Scope;
namespace fs = std::filesystem;

// ---- Workload sizes ---------------------------------------------------------

/// Everything a workload's size depends on. Full sizes are stated against
/// the program's caches in README.md; --smoke shrinks them to seconds.
struct Sizes {
  std::size_t files = 0;             // file-tree workloads
  std::uint64_t mean_file_bytes = 0;
  std::size_t aging_generations = 0; // restore-aged: mutations in set-up
  std::uint64_t stream_chunks = 0;   // cluster-daily: chunks per client-version
  std::size_t iterations = 1;        // measured iterations per lifetime
};

Sizes sizes_for(const std::string& workload, bool smoke) {
  Sizes s;
  if (workload == "cluster-daily") {
    s.stream_chunks = smoke ? 200 : 2000;
    s.iterations = smoke ? 1 : 6;
    return s;
  }
  s.files = smoke ? 16 : 512;
  s.mean_file_bytes = smoke ? 32 * KiB : 128 * KiB;
  if (workload == "second-write") s.iterations = smoke ? 1 : 4;
  if (workload == "restore-aged") {
    s.aging_generations = smoke ? 2 : 6;
    s.iterations = smoke ? 1 : 8;
  }
  return s;
}

constexpr std::size_t kDedup2Threads = 4;
constexpr std::size_t kClusterClients = 4;
constexpr std::uint32_t kStreamChunkSize = kExpectedChunkSize;

// ---- Small helpers ----------------------------------------------------------

double mib(std::uint64_t bytes) { return static_cast<double>(bytes) / MiB; }
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// FNV-1a over the bytes of everything a lifetime must reproduce exactly.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void hash_director(Digest& d, const core::Director& director) {
  for (const core::JobVersionRecord& v : director.all_versions()) {
    d.u64(v.job_id);
    d.u64(v.version);
    d.u64(v.logical_bytes);
    for (const core::FileRecord& f : v.files) {
      d.str(f.meta.path);
      d.u64(f.meta.size);
      d.u64(f.meta.mtime);
      d.bytes(f.chunk_fps.data(), f.chunk_fps.size() * sizeof(Fingerprint));
      d.bytes(f.chunk_sizes.data(),
              f.chunk_sizes.size() * sizeof(std::uint32_t));
    }
  }
}

void hash_clocks(Digest& d, const core::ServerClocks& c) {
  d.bytes(&c.nic, sizeof c.nic);
  d.bytes(&c.log_disk, sizeof c.log_disk);
  d.bytes(&c.index_disk, sizeof c.index_disk);
}

struct Summary {
  double median = 0, p25 = 0, p75 = 0, min = 0, max = 0;
  std::size_t n = 0;
};

/// Quantiles by linear interpolation between order statistics.
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  auto q = [&](double p) {
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  s.median = q(0.5);
  s.p25 = q(0.25);
  s.p75 = q(0.75);
  s.min = v.front();
  s.max = v.back();
  return s;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Host speed reference ---------------------------------------------------
//
// On a shared host every timing of a run moves with the host's speed, which
// drifts by 20-30% over minutes as other tenants come and go. So the bench
// also times a fixed reference task of its own (no library code) before
// every measured lifetime, when no server exists. The task does the kinds
// of work the workloads do: copying into freshly mapped memory, writing and
// reading back a file through the page cache with a flush per write (as
// FileBlockDevice does), and hashing a cache-resident buffer. A run's
// published timings are restated at a nominal host speed: each is scaled by
// the run's median task time over kReferenceSeconds. The unscaled medians
// are printed beside them as wall.<metric>.

/// Nominal reference-task time: timings are restated at the speed of a host
/// that runs the task in this long. Fixed, so that runs on one host compare.
constexpr double kReferenceSeconds = 0.040;

volatile std::uint64_t g_reference_sink;  // keeps the hash loop alive

/// One reference task in `dir`; returns its wall seconds.
double reference_task(const fs::path& dir) {
  static std::vector<std::uint64_t> source(512 * 1024, 7);  // 4 MiB
  static std::vector<std::uint64_t> hashed(256 * 1024, 3);  // 2 MiB
  const std::size_t source_bytes = source.size() * sizeof(std::uint64_t);
  const std::int64_t t0 = bench::now_ns();

  constexpr std::size_t kFresh = 32 * MiB;
  void* mapped = ::mmap(nullptr, kFresh, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped != MAP_FAILED) {
    auto unmap = [](char* p) { ::munmap(p, kFresh); };
    const std::unique_ptr<char, decltype(unmap)> fresh(
        static_cast<char*>(mapped), unmap);
    for (std::size_t at = 0; at < kFresh; at += source_bytes) {
      std::memcpy(fresh.get() + at, source.data(), source_bytes);
    }
  }

  const fs::path path = dir / "reference.bin";
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary |
                                std::ios::trunc);
    constexpr std::size_t kBlock = 64 * KiB;
    for (std::size_t at = 0; at < 16 * MiB; at += kBlock) {
      file.write(reinterpret_cast<const char*>(source.data()), kBlock);
      file.flush();
    }
    file.seekg(0);
    std::vector<char> block(kBlock);
    while (file.read(block.data(), kBlock)) {
    }
  }
  std::error_code ec;
  fs::remove(path, ec);

  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int pass = 0; pass < 16; ++pass) {
    for (std::uint64_t& w : hashed) {
      h = (h ^ w) * 0x100000001b3ULL;
      w = h >> 7;
    }
  }
  g_reference_sink = h;
  return static_cast<double>(bench::now_ns() - t0) * 1e-9;
}

// ---- Options ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  fs::path dir;
  fs::path trace_path;  // empty: untraced run
  bool smoke = false;

  [[nodiscard]] bool traced() const { return !trace_path.empty(); }
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "<first-write|second-write|restore-aged|cluster-daily> "
               "--seed <n> [--seconds <s>] [--dir <scratch>] "
               "[--trace <spans.jsonl>] [--smoke]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      o.workload = val;
    } else if (arg == "--seed") {
      const auto r = std::from_chars(val.data(), val.data() + val.size(),
                                     o.seed);
      if (r.ec != std::errc{} || r.ptr != val.data() + val.size()) {
        usage("bad --seed");
      }
    } else if (arg == "--seconds") {
      const auto r = std::from_chars(val.data(), val.data() + val.size(),
                                     o.seconds);
      if (r.ec != std::errc{} || o.seconds < 0) usage("bad --seconds");
    } else if (arg == "--dir") {
      o.dir = val;
    } else if (arg == "--trace") {
      o.trace_path = val;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload != "first-write" && o.workload != "second-write" &&
      o.workload != "restore-aged" && o.workload != "cluster-daily") {
    usage("unknown --workload");
  }
  if (o.dir.empty()) {
    o.dir = fs::temp_directory_path() /
            ("bench_e2e-" + std::to_string(::getpid()));
  }
  if (o.smoke) o.seconds = 0;
  return o;
}

/// Scratch root, removed on every exit path.
fs::path g_scratch;

[[noreturn]] void wrong_output(const std::string& what) {
  std::fprintf(stderr, "bench_e2e: WRONG OUTPUT: %s\n", what.c_str());
  std::error_code ec;
  fs::remove_all(g_scratch, ec);
  std::exit(3);
}

// ---- Single-server deployment on files --------------------------------------

/// Device counters per role, shared by every traced lifetime of a run.
struct RoleCounters {
  bench::DeviceCounters log;
  bench::DeviceCounters index;
  bench::DeviceCounters repo;
};

using DeviceFactory = std::function<std::unique_ptr<storage::BlockDevice>()>;

/// Mints `dir/stem-N` file devices (N counts up), wrapped in a
/// CountingDevice when `counters` is set. A file that cannot be opened is
/// recorded in `*error` and replaced by a memory device so the server
/// stays constructible; the lifetime then fails.
DeviceFactory file_factory(fs::path dir, std::string stem,
                           bench::DeviceCounters* counters,
                           std::shared_ptr<Status> error) {
  auto next = std::make_shared<int>(0);
  return [dir = std::move(dir), stem = std::move(stem), counters,
          error = std::move(error), next]() -> std::unique_ptr<storage::BlockDevice> {
    const fs::path path = dir / (stem + "-" + std::to_string((*next)++));
    auto opened = storage::FileBlockDevice::open(path);
    std::unique_ptr<storage::BlockDevice> device;
    if (opened.ok()) {
      device = std::move(opened).value();
    } else {
      *error = opened.status();
      device = std::make_unique<storage::MemBlockDevice>();
    }
    if (counters == nullptr) return device;
    return std::make_unique<bench::CountingDevice>(std::move(device),
                                                   counters);
  };
}

/// Memory devices, counted when `counters` is set (cluster servers).
DeviceFactory mem_factory(bench::DeviceCounters* counters) {
  return [counters]() -> std::unique_ptr<storage::BlockDevice> {
    auto device = std::make_unique<storage::MemBlockDevice>();
    if (counters == nullptr) return device;
    return std::make_unique<bench::CountingDevice>(std::move(device),
                                                   counters);
  };
}

/// One backup server whose chunk log, index and single repository node
/// are FileBlockDevices under `dir` (flushed to the OS per write, never
/// fsynced — as shipped).
class Deployment {
 public:
  Deployment(fs::path dir, RoleCounters* counters) : dir_(std::move(dir)) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_, ec);
    if (ec) *error_ = Status(Errc::kIoError, "cannot create " + dir_.string());

    std::vector<std::unique_ptr<storage::BlockDevice>> nodes;
    nodes.push_back(file_factory(dir_, "repo",
                                 counters ? &counters->repo : nullptr,
                                 error_)());
    repository = std::make_unique<storage::ChunkRepository>(std::move(nodes));

    core::BackupServerConfig config;
    config.index_params = {.prefix_bits = 12, .blocks_per_bucket = 16};
    config.chunk_store.dedup2.threads = kDedup2Threads;
    config.log_device_factory =
        file_factory(dir_, "log", counters ? &counters->log : nullptr, error_);
    config.index_device_factory = file_factory(
        dir_, "index", counters ? &counters->index : nullptr, error_);
    server = std::make_unique<core::BackupServer>(0, config, repository.get(),
                                                  &director);
    if (!server->boot_status().ok() && error_->ok()) {
      *error_ = server->boot_status();
    }
  }

  ~Deployment() {
    server.reset();
    repository.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] const Status& status() const { return *error_; }

  core::Director director;
  std::unique_ptr<storage::ChunkRepository> repository;
  std::unique_ptr<core::BackupServer> server;

 private:
  fs::path dir_;
  std::shared_ptr<Status> error_ = std::make_shared<Status>();
};

// ---- The runner -------------------------------------------------------------

/// Wall times and volumes of one measured iteration.
struct Iteration {
  double logical = 0;   // bytes backed up
  double dedup1_s = 0;
  double dedup2_s = 0;
  double restored = 0;  // bytes restored
  double restore_s = 0;
  std::uint64_t wire = 0;  // server NIC bytes during backup + dedup-2
};

/// Per-layer quantities of one traced iteration that spans do not give.
struct LayerCounts {
  double chunked_bytes = 0;
  double offers = 0, suppressed = 0;
  double log_bytes = 0, log_model_s = 0;
  double sil_batches = 0, sil_fps = 0, sil_dups = 0, sil_model_s = 0;
  double store_chunks = 0, store_bytes = 0, store_model_s = 0;
  double siu_inserted = 0, siu_scalings = 0, siu_model_s = 0;
  double lpc_hits = 0, lpc_misses = 0;
  double cluster_model_s = 0;
  double net_frames = 0, net_wire = 0, net_raw = 0;
};

class Runner {
 public:
  explicit Runner(Options opts)
      : opts_(std::move(opts)), sizes_(sizes_for(opts_.workload, opts_.smoke)) {}

  int run();

 private:
  // Lifetime loop: `body(dir, traced)` runs one set-up + iterations on
  // fresh state and returns the lifetime's digest. setup_s is the wall
  // time from the start of a lifetime to its first iteration, input
  // generation included.
  void lifetimes(const std::function<std::uint64_t(const fs::path&, bool)>& body);

  void first_write();
  void second_write();
  void restore_aged();
  void cluster_daily();

  // Timed operations on a single-server deployment; each counts one op.
  bool backup(Deployment& d, std::uint64_t job, const core::Dataset& data,
              bool incremental, bool traced, Iteration& it);
  bool dedup2(Deployment& d, bool traced, Iteration& it);
  bool restore(Deployment& d, std::uint64_t job, std::uint32_t version,
               const core::Dataset& expected, bool traced, Iteration& it);

  bool traced_backup(Deployment& d, std::uint64_t job,
                     const core::Dataset& data, bool incremental,
                     Iteration& it);
  bool traced_dedup2(Deployment& d);
  Result<core::Dataset> traced_restore(Deployment& d, std::uint64_t job,
                                       std::uint32_t version);
  bool traced_stream_backup(core::FileStore& store, std::uint64_t job,
                            const std::string& client, std::uint32_t version,
                            std::span<const Fingerprint> fps,
                            std::uint32_t parent);
  Result<core::Dataset> traced_cluster_restore(core::Cluster& cluster,
                                               std::uint64_t job,
                                               std::uint32_t version,
                                               std::size_t via);

  // Iteration bookkeeping.
  void begin_iteration(bool traced);
  void end_iteration(bool traced, const Iteration& it);
  // Untraced end-to-end samples of the backup and restore windows `it`
  // ran (a window it did not run adds none).
  void record_windows(const Iteration& it);
  void record_lifetime_ratios(double stored, double logical_total,
                              double wire, double logical_measured);

  bool count(bool ok, const std::string& what);
  void check_same(const core::Dataset& got, const core::Dataset& want,
                  const std::string& what);

  void emit();

  Options opts_;
  Sizes sizes_;
  bench::Tracer tracer_;
  RoleCounters devices_;
  bench::DeviceTotals dev_before_[3];
  chunking::RabinChunker chunker_{chunking::CdcParams{}};

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t lifetimes_run_ = 0;
  std::size_t iterations_ = 0;
  std::optional<std::uint64_t> digest_;
  std::int64_t lifetime_start_ns_ = 0;  // set until the first iteration
  bool warmup_ = false;                 // current lifetime is not recorded

  // Untraced end-to-end samples, and both kinds of lifetime's primary
  // throughput (for the tracing overhead).
  std::map<std::string, std::vector<double>> e2e_;
  std::vector<double> untraced_primary_;
  std::vector<double> traced_primary_;
  std::vector<double> host_ref_;  // reference task seconds

  // Traced per-layer samples (one per traced iteration) and histograms.
  std::map<std::string, std::vector<double>> layer_;
  LayerCounts counts_;
  std::uint32_t root_ = 0;       // open iteration span
  std::uint32_t phase_span_ = 0; // open cluster phase span
  std::uint32_t dedup2_span_ = 0;
  bench::LogHistogram chunk_file_ns_;
  bench::LogHistogram append_ns_;
  bench::LogHistogram read_chunk_ns_;
};

bool Runner::count(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "bench_e2e: %s failed\n", what.c_str());
  }
  return ok;
}

void Runner::check_same(const core::Dataset& got, const core::Dataset& want,
                        const std::string& what) {
  ++attempted_;
  bool same = got.files.size() == want.files.size();
  for (std::size_t i = 0; same && i < got.files.size(); ++i) {
    same = got.files[i].path == want.files[i].path &&
           got.files[i].content == want.files[i].content;
  }
  if (!same) wrong_output(what + ": restored bytes differ from the backup");
}

void Runner::lifetimes(
    const std::function<std::uint64_t(const fs::path&, bool)>& body) {
  // A full run first spends one lifetime warming the process (allocator
  // arenas, page cache, code paths) and records nothing from it: a
  // long-running server pays those costs once, not per backup.
  const std::size_t warmups = opts_.smoke ? 0 : 1;
  const std::size_t min_measured = opts_.smoke ? (opts_.traced() ? 2 : 1) : 3;
  std::int64_t start = bench::now_ns();
  std::int64_t last_lifetime_ns = 0;
  for (std::size_t life = 0;; ++life) {
    warmup_ = life < warmups;
    const std::size_t measured = life - std::min(life, warmups);
    const bool traced = opts_.traced() && !warmup_ && measured % 2 == 1;
    if (!warmup_) {
      // No server exists between lifetimes, so no library code runs
      // beside the reference task. It gets ~5% of a lifetime.
      const std::int64_t t0 = bench::now_ns();
      do {
        host_ref_.push_back(reference_task(opts_.dir));
      } while (bench::now_ns() - t0 < last_lifetime_ns / 20);
    }
    const std::int64_t life_start = bench::now_ns();
    lifetime_start_ns_ = life_start;
    const std::uint64_t digest =
        body(opts_.dir / ("life-" + std::to_string(life)), traced);
    last_lifetime_ns = bench::now_ns() - life_start;
    if (failed_ > 0) return;  // state after a failed op proves nothing
    if (digest_.has_value() && *digest_ != digest) {
      wrong_output("lifetime " + std::to_string(life) +
                   (traced ? " (traced)" : "") +
                   " diverged from lifetime 0 (director records, stored "
                   "bytes or modeled clocks)");
    }
    digest_ = digest;
    if (warmup_) {
      start = bench::now_ns();
      continue;
    }
    ++lifetimes_run_;
    const double elapsed =
        static_cast<double>(bench::now_ns() - start) * 1e-9;
    if (measured + 1 >= min_measured && elapsed >= opts_.seconds) return;
  }
}

void Runner::record_lifetime_ratios(double stored, double logical_total,
                                    double wire, double logical_measured) {
  if (warmup_) return;
  e2e_["stored_per_logical"].push_back(ratio(stored, logical_total));
  e2e_["wire_per_logical"].push_back(ratio(wire, logical_measured));
}

void Runner::begin_iteration(bool traced) {
  if (lifetime_start_ns_ != 0) {  // first iteration: set-up ends here
    if (!traced && !warmup_) {
      e2e_["setup_s"].push_back(
          static_cast<double>(bench::now_ns() - lifetime_start_ns_) * 1e-9);
    }
    lifetime_start_ns_ = 0;
  }
  if (!traced) return;
  tracer_.set_iteration(static_cast<std::uint32_t>(iterations_));
  root_ = tracer_.open("iteration", 0);
  counts_ = {};
  dev_before_[0] = bench::DeviceTotals::of(devices_.log);
  dev_before_[1] = bench::DeviceTotals::of(devices_.index);
  dev_before_[2] = bench::DeviceTotals::of(devices_.repo);
}

void Runner::record_windows(const Iteration& it) {
  if (warmup_) return;
  if (it.logical > 0) {
    e2e_["backup_MBps"].push_back(
        ratio(it.logical, it.dedup1_s + it.dedup2_s) / 1e6);
    e2e_["dedup1_MBps"].push_back(ratio(it.logical, it.dedup1_s) / 1e6);
    e2e_["dedup2_s"].push_back(it.dedup2_s);
  }
  if (it.restored > 0) {
    e2e_["restore_MBps"].push_back(ratio(it.restored, it.restore_s) / 1e6);
  }
}

void Runner::end_iteration(bool traced, const Iteration& it) {
  if (warmup_) return;
  ++iterations_;
  const double primary =
      opts_.workload == "restore-aged"
          ? ratio(it.restored, it.restore_s) / 1e6
          : ratio(it.logical, it.dedup1_s + it.dedup2_s) / 1e6;
  if (!traced) {
    record_windows(it);
    untraced_primary_.push_back(primary);
    return;
  }
  tracer_.close(root_);
  traced_primary_.push_back(primary);

  const std::map<std::string, double> self = tracer_.self_seconds(root_);
  auto busy = [&](const char* name) {
    const auto found = self.find(name);
    return found == self.end() ? 0.0 : found->second;
  };
  const LayerCounts& c = counts_;
  auto put = [&](const char* name, double v) { layer_[name].push_back(v); };
  put("chunking.busy_s", busy("chunking"));
  put("chunking.MBps", ratio(c.chunked_bytes, busy("chunking")) / 1e6);
  put("fingerprint.busy_s", busy("fingerprint"));
  put("fingerprint.MBps", ratio(c.chunked_bytes, busy("fingerprint")) / 1e6);
  put("filter.busy_s", busy("filter"));
  put("filter.offers", c.offers);
  put("filter.suppressed_frac", ratio(c.suppressed, c.offers));
  put("chunk_log.busy_s", busy("chunk_log"));
  put("chunk_log.MiB", c.log_bytes / MiB);
  put("chunk_log.model_s", c.log_model_s);
  put("metadata.busy_s", busy("metadata"));
  put("sil.busy_s", busy("sil"));
  put("sil.batches", c.sil_batches);
  put("sil.fps", c.sil_fps);
  put("sil.dup_frac", ratio(c.sil_dups, c.sil_fps));
  put("sil.model_s", c.sil_model_s);
  put("store.busy_s", busy("store"));
  put("store.new_chunks", c.store_chunks);
  put("store.new_MiB", c.store_bytes / MiB);
  put("store.model_s", c.store_model_s);
  put("siu.busy_s", busy("siu"));
  put("siu.inserted", c.siu_inserted);
  put("siu.scalings", c.siu_scalings);
  put("siu.model_s", c.siu_model_s);
  const char* roles[3] = {"log", "index", "repo"};
  const bench::DeviceCounters* counters[3] = {&devices_.log, &devices_.index,
                                              &devices_.repo};
  for (int r = 0; r < 3; ++r) {
    const bench::DeviceTotals d =
        bench::DeviceTotals::of(*counters[r]) - dev_before_[r];
    const std::string p = std::string("device.") + roles[r] + ".";
    layer_[p + "reads"].push_back(static_cast<double>(d.reads));
    layer_[p + "read_MiB"].push_back(mib(d.read_bytes));
    layer_[p + "writes"].push_back(static_cast<double>(d.writes));
    layer_[p + "write_MiB"].push_back(mib(d.write_bytes));
    layer_[p + "busy_s"].push_back(static_cast<double>(d.busy_ns) * 1e-9);
  }
  put("restore.busy_s", busy("restore"));
  put("lpc.hit_rate", ratio(c.lpc_hits, c.lpc_hits + c.lpc_misses));
  put("lpc.misses_per_MiB", ratio(c.lpc_misses, it.restored / MiB));
  for (const char* phase : {"A", "B", "C", "D", "E", "commit"}) {
    layer_[std::string("cluster.") + phase + "_s"].push_back(
        busy((std::string("cluster.") + phase).c_str()));
  }
  put("cluster.model_s", c.cluster_model_s);
  put("net.frames", c.net_frames);
  put("net.wire_MiB", c.net_wire / MiB);
  put("net.raw_MiB", c.net_raw / MiB);
  put("trace.coverage_frac", tracer_.leaf_coverage(root_));
  root_ = 0;
}

// ---- Timed single-server operations -----------------------------------------

bool Runner::backup(Deployment& d, std::uint64_t job,
                    const core::Dataset& data, bool incremental, bool traced,
                    Iteration& it) {
  const std::uint64_t nic0 = d.server->nic().bytes_transferred();
  const double log0 = d.server->clocks().log_disk;
  const std::int64_t t0 = bench::now_ns();
  bool ok = false;
  if (traced) {
    ok = traced_backup(d, job, data, incremental, it);
  } else {
    core::BackupEngine engine("client", &d.director);
    Result<core::BackupRunStats> stats = engine.run_backup(
        job, data, d.server->file_store(), {.incremental = incremental});
    ok = stats.ok();
    if (ok) it.logical += static_cast<double>(stats.value().logical_bytes);
  }
  it.dedup1_s += static_cast<double>(bench::now_ns() - t0) * 1e-9;
  it.wire += d.server->nic().bytes_transferred() - nic0;
  counts_.log_model_s += d.server->clocks().log_disk - log0;
  return count(ok, "backup");
}

bool Runner::dedup2(Deployment& d, bool traced, Iteration& it) {
  const std::uint64_t nic0 = d.server->nic().bytes_transferred();
  const std::int64_t t0 = bench::now_ns();
  const bool ok =
      traced ? traced_dedup2(d) : d.server->run_dedup2(/*force_siu=*/true).ok();
  it.dedup2_s += static_cast<double>(bench::now_ns() - t0) * 1e-9;
  it.wire += d.server->nic().bytes_transferred() - nic0;
  return count(ok, "dedup-2");
}

bool Runner::restore(Deployment& d, std::uint64_t job, std::uint32_t version,
                     const core::Dataset& expected, bool traced,
                     Iteration& it) {
  const cache::LpcCache& lpc = d.server->chunk_store().lpc();
  const double hits0 = static_cast<double>(lpc.hits());
  const double misses0 = static_cast<double>(lpc.misses());
  const std::int64_t t0 = bench::now_ns();
  Result<core::Dataset> got = [&]() -> Result<core::Dataset> {
    if (traced) return traced_restore(d, job, version);
    core::BackupEngine engine("client", &d.director);
    return engine.restore(job, version, *d.server, /*verify=*/false);
  }();
  it.restore_s += static_cast<double>(bench::now_ns() - t0) * 1e-9;
  counts_.lpc_hits += static_cast<double>(lpc.hits()) - hits0;
  counts_.lpc_misses += static_cast<double>(lpc.misses()) - misses0;
  if (!count(got.ok(), "restore of v" + std::to_string(version))) return false;
  it.restored += static_cast<double>(got.value().total_bytes());
  check_same(got.value(), expected, "restore of v" + std::to_string(version));
  return true;
}

bool Runner::traced_backup(Deployment& d, std::uint64_t job,
                           const core::Dataset& data, bool incremental,
                           Iteration& it) {
  // Mirrors BackupEngine::run_backup call for call, except that a file's
  // offers run before its transfers (the order streaming ingest uses);
  // the log records, director records and modeled clocks are unchanged.
  core::FileStore& store = d.server->file_store();
  Scope job_span(tracer_, "job.backup", root_);
  std::unordered_map<std::string, const core::FileRecord*> previous_files;
  std::optional<core::JobVersionRecord> previous;
  if (incremental) {
    previous = d.director.latest_version(job);
    if (previous.has_value()) {
      for (const core::FileRecord& f : previous->files) {
        previous_files.emplace(f.meta.path, &f);
      }
    }
  }
  {
    Scope s(tracer_, "filter", job_span.id());
    store.begin_job(job);
  }
  for (const core::FileData& file : data.files) {
    if (incremental) {
      const auto found = previous_files.find(file.path);
      if (found != previous_files.end() &&
          found->second->meta.size == file.content.size() &&
          found->second->meta.mtime == file.mtime) {
        Scope s(tracer_, "metadata", job_span.id());
        store.record_unchanged_file(*found->second);
        it.logical += static_cast<double>(found->second->logical_bytes());
        continue;
      }
    }
    Scope file_span(tracer_, "file", job_span.id());
    {
      Scope s(tracer_, "metadata", file_span.id());
      store.begin_file({.path = file.path,
                        .size = file.content.size(),
                        .mtime = file.mtime,
                        .mode = 0644});
    }
    const ByteSpan content(file.content.data(), file.content.size());
    std::vector<chunking::ChunkBounds> bounds;
    {
      Scope s(tracer_, "chunking", file_span.id());
      const std::int64_t t0 = bench::now_ns();
      bounds = chunker_.chunk(content);
      chunk_file_ns_.record(static_cast<std::uint64_t>(bench::now_ns() - t0));
    }
    std::vector<ByteSpan> chunks;
    chunks.reserve(bounds.size());
    for (const chunking::ChunkBounds& b : bounds) {
      chunks.push_back(content.subspan(b.offset, b.size));
    }
    std::vector<Fingerprint> fps;
    {
      Scope s(tracer_, "fingerprint", file_span.id());
      fps = Sha1::hash_batch(std::span<const ByteSpan>(chunks),
                             SimdPolicy::kAuto);
    }
    counts_.chunked_bytes += static_cast<double>(content.size());
    std::vector<std::size_t> admitted;
    {
      Scope s(tracer_, "filter", file_span.id());
      for (std::size_t i = 0; i < fps.size(); ++i) {
        it.logical += static_cast<double>(chunks[i].size());
        if (store.offer_fingerprint(
                fps[i], static_cast<std::uint32_t>(chunks[i].size()))) {
          admitted.push_back(i);
        }
      }
    }
    counts_.offers += static_cast<double>(fps.size());
    counts_.suppressed += static_cast<double>(fps.size() - admitted.size());
    {
      Scope s(tracer_, "chunk_log", file_span.id());
      for (const std::size_t i : admitted) {
        const std::int64_t t0 = bench::now_ns();
        const Status st = store.receive_chunk(fps[i], chunks[i]);
        append_ns_.record(static_cast<std::uint64_t>(bench::now_ns() - t0));
        if (!st.ok()) return false;
        counts_.log_bytes += static_cast<double>(chunks[i].size());
      }
    }
    Scope s(tracer_, "metadata", file_span.id());
    store.end_file();
  }
  Scope s(tracer_, "metadata", job_span.id());
  return store.end_job().ok();
}

bool Runner::traced_dedup2(Deployment& d) {
  // Mirrors BackupServer::run_dedup2(force_siu = true). The index cache
  // holds every undetermined fingerprint of these workloads, so there is
  // one SIL/store batch and the pipelined schedule degenerates to this
  // serial one (same outputs for any thread count by construction).
  core::BackupServer& server = *d.server;
  core::ChunkStore& cs = server.chunk_store();
  Scope span(tracer_, "job.dedup2", root_);
  std::vector<Fingerprint> undetermined;
  {
    Scope s(tracer_, "sil", span.id());
    undetermined = server.file_store().take_undetermined();
  }
  const std::size_t batch_cap =
      server.config().chunk_store.cache_params.capacity;
  for (std::size_t pos = 0; pos < undetermined.size();) {
    const std::size_t n = std::min(batch_cap, undetermined.size() - pos);
    const std::vector<Fingerprint> batch(
        undetermined.begin() + static_cast<std::ptrdiff_t>(pos),
        undetermined.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    std::vector<Fingerprint> new_fps;
    {
      Scope s(tracer_, "sil", span.id());
      std::vector<std::uint8_t> found;
      Result<core::SilResult> sil = cs.sil(batch, found);
      if (!sil.ok()) return false;
      counts_.sil_batches += 1;
      counts_.sil_fps += static_cast<double>(sil.value().queried);
      counts_.sil_dups += static_cast<double>(sil.value().found_on_disk +
                                              sil.value().found_pending);
      counts_.sil_model_s += sil.value().seconds;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (found[i] == 0) new_fps.push_back(batch[i]);
      }
    }
    Scope s(tracer_, "store", span.id());
    const double model0 =
        server.clocks().log_disk + d.repository->total_node_seconds();
    Result<core::StoreResult> stored = cs.store_new_chunks(new_fps);
    if (!stored.ok()) return false;
    cs.add_pending(std::span<const IndexEntry>(stored.value().entries));
    counts_.store_chunks += static_cast<double>(stored.value().new_chunks);
    counts_.store_bytes += static_cast<double>(stored.value().new_bytes);
    counts_.store_model_s += server.clocks().log_disk +
                             d.repository->total_node_seconds() - model0;
  }
  {
    Scope s(tracer_, "store", span.id());
    cs.clear_log();
  }
  Scope s(tracer_, "siu", span.id());
  Result<core::SiuResult> siu = cs.siu();
  if (!siu.ok()) return false;
  counts_.siu_inserted += static_cast<double>(siu.value().inserted);
  counts_.siu_scalings += static_cast<double>(siu.value().scalings);
  counts_.siu_model_s += siu.value().seconds;
  return true;
}

Result<core::Dataset> Runner::traced_restore(Deployment& d, std::uint64_t job,
                                             std::uint32_t version) {
  // Mirrors BackupEngine::restore(verify = false).
  const std::optional<core::JobVersionRecord> record =
      d.director.version(job, version);
  if (!record.has_value()) return Error{Errc::kNotFound, "no such version"};
  Scope span(tracer_, "job.restore", root_);
  core::Dataset out;
  for (const core::FileRecord& file : record->files) {
    Scope s(tracer_, "restore", span.id());
    core::FileData data;
    data.path = file.meta.path;
    data.content.reserve(file.logical_bytes());
    for (std::size_t i = 0; i < file.chunk_fps.size(); ++i) {
      const std::int64_t t0 = bench::now_ns();
      Result<std::vector<Byte>> chunk =
          d.server->chunk_store().read_chunk(file.chunk_fps[i]);
      read_chunk_ns_.record(static_cast<std::uint64_t>(bench::now_ns() - t0));
      if (!chunk.ok()) return chunk.error();
      if (chunk.value().size() != file.chunk_sizes[i]) {
        return Error{Errc::kCorrupt, "chunk size mismatch"};
      }
      d.server->nic().transfer(chunk.value().size());
      data.content.insert(data.content.end(), chunk.value().begin(),
                          chunk.value().end());
    }
    out.files.push_back(std::move(data));
  }
  return out;
}

bool Runner::traced_stream_backup(core::FileStore& store, std::uint64_t job,
                                  const std::string& client,
                                  std::uint32_t version,
                                  std::span<const Fingerprint> fps,
                                  std::uint32_t parent) {
  // Mirrors BackupEngine::run_backup_stream, offers before transfers.
  Scope file_span(tracer_, "file", parent);
  {
    Scope s(tracer_, "filter", file_span.id());
    store.begin_job(job);
  }
  {
    Scope s(tracer_, "metadata", file_span.id());
    store.begin_file({.path = client + "/stream-v" + std::to_string(version),
                      .size = fps.size() * std::uint64_t{kStreamChunkSize},
                      .mtime = 0,
                      .mode = 0644});
  }
  std::vector<std::size_t> admitted;
  {
    Scope s(tracer_, "filter", file_span.id());
    for (std::size_t i = 0; i < fps.size(); ++i) {
      if (store.offer_fingerprint(fps[i], kStreamChunkSize)) {
        admitted.push_back(i);
      }
    }
  }
  counts_.offers += static_cast<double>(fps.size());
  counts_.suppressed += static_cast<double>(fps.size() - admitted.size());
  std::vector<std::vector<Byte>> payloads;
  {
    Scope s(tracer_, "client.payload", file_span.id());
    payloads.reserve(admitted.size());
    for (const std::size_t i : admitted) {
      payloads.push_back(
          core::BackupEngine::synthetic_payload(fps[i], kStreamChunkSize));
    }
  }
  {
    Scope s(tracer_, "chunk_log", file_span.id());
    for (std::size_t j = 0; j < admitted.size(); ++j) {
      const std::int64_t t0 = bench::now_ns();
      const Status st = store.receive_chunk(
          fps[admitted[j]], ByteSpan(payloads[j].data(), payloads[j].size()));
      append_ns_.record(static_cast<std::uint64_t>(bench::now_ns() - t0));
      if (!st.ok()) return false;
      counts_.log_bytes += kStreamChunkSize;
    }
  }
  Scope s(tracer_, "metadata", file_span.id());
  store.end_file();
  return store.end_job().ok();
}

Result<core::Dataset> Runner::traced_cluster_restore(core::Cluster& cluster,
                                                     std::uint64_t job,
                                                     std::uint32_t version,
                                                     std::size_t via) {
  // Mirrors Cluster::restore.
  const std::optional<core::JobVersionRecord> record =
      cluster.director().version(job, version);
  if (!record.has_value()) return Error{Errc::kNotFound, "no such version"};
  Scope span(tracer_, "job.restore", root_);
  core::Dataset out;
  for (const core::FileRecord& file : record->files) {
    Scope s(tracer_, "restore", span.id());
    core::FileData data;
    data.path = file.meta.path;
    for (const Fingerprint& fp : file.chunk_fps) {
      const std::int64_t t0 = bench::now_ns();
      Result<std::vector<Byte>> chunk = cluster.read_chunk(via, fp);
      read_chunk_ns_.record(static_cast<std::uint64_t>(bench::now_ns() - t0));
      if (!chunk.ok()) return chunk.error();
      data.content.insert(data.content.end(), chunk.value().begin(),
                          chunk.value().end());
    }
    out.files.push_back(std::move(data));
  }
  return out;
}

// ---- Workloads --------------------------------------------------------------
//
// The seed changes the bytes a workload backs up but not its structure.
// make_dataset draws one 256 KiB shared-block pool per seed, and where CDC
// anchors fall in that pool swings a tree's dedup ratio by ~10% from seed
// to seed; the stream generator's dup/new segment draws swing a cluster's
// by ~7%. Either would drown the 2% bounds on stored and wire bytes. Even
// seeded point edits, which shift content, move restore-aged's LPC miss
// count by ±4% from seed to seed. So file trees start from one fixed corpus
// in which the seed overwrites 8 bytes in place in every file, aging
// generations are edit-only with seed-independent draws, and the cluster's
// streams keep fixed structure while the seed relabels their fingerprints.

constexpr std::uint64_t kCorpusSeed = 2010;
constexpr std::uint64_t kStreamSeed = 1414;

core::Dataset make_tree(const Sizes& s, std::uint64_t seed) {
  core::Dataset tree =
      workload::make_dataset({.files = s.files,
                              .mean_file_bytes = s.mean_file_bytes,
                              .seed = kCorpusSeed,
                              .shared_fraction = 0.3});
  // Same-length overwrites: the bytes of a chunk or two per file change
  // with the seed, while file sizes and nearly every chunk boundary stay.
  std::mt19937_64 rng(seed);
  for (core::FileData& file : tree.files) {
    const std::uint64_t word = rng();
    if (file.content.size() >= sizeof word) {
      std::memcpy(file.content.data() + file.content.size() / 2, &word,
                  sizeof word);
    }
  }
  return tree;
}

/// Seed-keyed relabelling of a stream: identical positions keep identical
/// fingerprints, so the duplicate structure is unchanged.
std::vector<Fingerprint> relabel(const std::vector<Fingerprint>& fps,
                                 std::uint64_t seed) {
  std::vector<Fingerprint> out;
  out.reserve(fps.size());
  for (const Fingerprint& fp : fps) {
    Sha1 h;
    h.update(ByteSpan(fp.bytes.data(), fp.bytes.size()));
    h.update(ByteSpan(reinterpret_cast<const Byte*>(&seed), sizeof seed));
    out.push_back(h.finish());
  }
  return out;
}

/// "c<k>": cluster client k's name (its stream file is "c<k>/stream-v<n>",
/// the path BackupEngine::run_backup_stream gives it).
std::string client_name(std::size_t c) {
  std::string name = "c";
  name += std::to_string(c);
  return name;
}

/// What restoring a client's stream version must return: one file of
/// synthetic payloads.
core::Dataset stream_dataset(const std::string& client, std::uint32_t version,
                             const std::vector<Fingerprint>& fps) {
  core::FileData file;
  file.path = client + "/stream-v" + std::to_string(version);
  file.content.reserve(fps.size() * kStreamChunkSize);
  for (const Fingerprint& fp : fps) {
    const std::vector<Byte> payload =
        core::BackupEngine::synthetic_payload(fp, kStreamChunkSize);
    file.content.insert(file.content.end(), payload.begin(), payload.end());
  }
  core::Dataset out;
  out.files.push_back(std::move(file));
  return out;
}

/// Aging generation g: about 8 point edits in every file, no rewrites or
/// churn, so each generation's new chunks fill ~4 containers and six of
/// them spread the newest version over ~2x the LPC. Its draws are
/// seed-independent; the seed already changed v1.
workload::MutationParams generation(std::size_t g) {
  return {.seed = kCorpusSeed + g,
          .touch_fraction = 1.0,
          .edits_per_file = 8.0,
          .rewrite_fraction = 0.0,
          .churn_fraction = 0.0};
}

std::uint64_t deployment_digest(const Deployment& d) {
  Digest h;
  hash_director(h, d.director);
  h.u64(d.repository->stored_bytes());
  h.u64(d.server->nic().bytes_transferred());
  hash_clocks(h, d.server->clocks());
  return h.value();
}

void Runner::first_write() {
  // Each lifetime generates the tree and brings up a fresh server (set-up),
  // then runs one iteration that backs up the all-new tree.
  lifetimes([&](const fs::path& dir, bool traced) -> std::uint64_t {
    const core::Dataset tree = make_tree(sizes_, opts_.seed);
    Deployment d(dir, traced ? &devices_ : nullptr);
    if (!count(d.status().ok(), "bring-up")) return 0;
    const std::uint64_t job = d.director.define_job("client", "tree");
    Iteration it;
    begin_iteration(traced);
    const bool ok = backup(d, job, tree, false, traced, it) &&
                    dedup2(d, traced, it) &&
                    restore(d, job, 1, tree, traced, it);
    if (!ok) return 0;
    end_iteration(traced, it);
    if (!traced) {
      record_lifetime_ratios(static_cast<double>(d.repository->stored_bytes()),
                             it.logical, static_cast<double>(it.wire),
                             it.logical);
    }
    return deployment_digest(d);
  });
}

void Runner::second_write() {
  // Set-up writes the tree once and restores it, which fills the LPC with
  // the containers every later version shares. Every iteration re-backs up
  // the identical tree (non-incremental, so every file is chunked and
  // offered) and restores the newest version.
  lifetimes([&](const fs::path& dir, bool traced) -> std::uint64_t {
    const core::Dataset tree = make_tree(sizes_, opts_.seed);
    Deployment d(dir, traced ? &devices_ : nullptr);
    const std::uint64_t job = d.director.define_job("client", "tree");
    Iteration first;
    if (!(count(d.status().ok(), "bring-up") &&
          backup(d, job, tree, false, false, first) &&
          dedup2(d, false, first) &&
          restore(d, job, 1, tree, false, first))) {
      return 0;
    }
    double logical_total = first.logical;
    double logical_measured = 0;
    std::uint64_t wire = 0;
    for (std::size_t i = 0; i < sizes_.iterations; ++i) {
      Iteration it;
      begin_iteration(traced);
      const auto version = static_cast<std::uint32_t>(i + 2);
      if (!(backup(d, job, tree, false, traced, it) && dedup2(d, traced, it) &&
            restore(d, job, version, tree, traced, it))) {
        return 0;
      }
      end_iteration(traced, it);
      logical_total += it.logical;
      logical_measured += it.logical;
      wire += it.wire;
    }
    if (!traced) {
      record_lifetime_ratios(static_cast<double>(d.repository->stored_bytes()),
                             logical_total, static_cast<double>(wire),
                             logical_measured);
    }
    return deployment_digest(d);
  });
}

void Runner::restore_aged() {
  // Set-up ages a server through a full backup and `aging_generations`
  // incremental ones, each followed by dedup-2, then restores the newest
  // version and v1 once to warm the LPC. The incremental backups are this
  // workload's backup and dedup-2 samples (backup on an aging server).
  // Each iteration restores the newest version, whose chunks are spread
  // over every generation's containers, and then v1; restores change
  // nothing but the LPC, which each iteration leaves as it found it.
  lifetimes([&](const fs::path& dir, bool traced) -> std::uint64_t {
    const core::Dataset v1 = make_tree(sizes_, opts_.seed);
    Deployment d(dir, traced ? &devices_ : nullptr);
    const std::uint64_t job = d.director.define_job("client", "tree");
    Iteration full;
    if (!(count(d.status().ok(), "bring-up") &&
          backup(d, job, v1, false, false, full) &&
          dedup2(d, false, full))) {
      return 0;
    }
    double logical_total = full.logical;
    double logical_aging = 0;
    std::uint64_t wire = 0;
    core::Dataset current = v1;
    for (std::size_t g = 1; g <= sizes_.aging_generations; ++g) {
      current = workload::mutate_dataset(current, generation(g));
      Iteration aging;
      if (!(backup(d, job, current, true, false, aging) &&
            dedup2(d, false, aging))) {
        return 0;
      }
      if (!traced) record_windows(aging);
      logical_total += aging.logical;
      logical_aging += aging.logical;
      wire += aging.wire;
    }
    const auto newest =
        static_cast<std::uint32_t>(sizes_.aging_generations + 1);
    Iteration warm;
    if (!(restore(d, job, newest, current, false, warm) &&
          restore(d, job, 1, v1, false, warm))) {
      return 0;
    }
    for (std::size_t i = 0; i < sizes_.iterations; ++i) {
      Iteration it;
      begin_iteration(traced);
      if (!(restore(d, job, newest, current, traced, it) &&
            restore(d, job, 1, v1, traced, it))) {
        return 0;
      }
      end_iteration(traced, it);
    }
    if (!traced) {
      record_lifetime_ratios(static_cast<double>(d.repository->stored_bytes()),
                             logical_total, static_cast<double>(wire),
                             logical_aging);
    }
    return deployment_digest(d);
  });
}

void Runner::cluster_daily() {
  // A w=2 cluster (4 servers, replicated partitions, 4 repository nodes,
  // memory devices, loopback, codec off) and four clients, one per server,
  // each streaming Section 6.2 versioned fingerprints (dup 0.9, cross 0.3)
  // with synthetic 8 KiB payloads. Set-up is cluster construction plus
  // generation 1; each iteration is one generation — dedup-1 for every
  // client, then the cluster's dedup-2 — followed by a restore of one
  // client's newest version through the next server.
  const std::uint64_t chunks = sizes_.stream_chunks;
  lifetimes([&](const fs::path&, bool traced) -> std::uint64_t {
    core::ClusterConfig cfg;
    cfg.routing_bits = 2;
    cfg.repository_nodes = 4;
    // 2 MiB per index copy (80k entries) holds the ~4k fingerprints a
    // partition receives in a lifetime.
    cfg.server_config.index_params = {.prefix_bits = 10,
                                      .blocks_per_bucket = 4};
    // The cluster runs its four servers' phases on four threads already.
    cfg.server_config.chunk_store.dedup2.threads = 1;
    if (traced) {
      cfg.server_config.log_device_factory = mem_factory(&devices_.log);
      cfg.server_config.index_device_factory = mem_factory(&devices_.index);
      cfg.phase_hook = [this](const char* tag) {
        if (dedup2_span_ == 0) return;  // an untraced round (set-up)
        if (phase_span_ != 0) tracer_.close(phase_span_);
        phase_span_ =
            tracer_.open(std::string("cluster.") + tag, dedup2_span_);
      };
    }
    core::Cluster cluster(cfg);

    // One subspace per client, so every cross-stream draw lands on
    // another live client's history.
    workload::SubspaceRegistry registry(2);
    std::vector<workload::VersionedStream> streams;
    streams.reserve(kClusterClients);
    std::vector<std::uint64_t> jobs;
    for (std::size_t c = 0; c < kClusterClients; ++c) {
      streams.emplace_back(&registry,
                           workload::StreamParams{.stream_id = c,
                                                  .dup_fraction = 0.9,
                                                  .cross_fraction = 0.3,
                                                  .seed = kStreamSeed + c});
      jobs.push_back(
          cluster.director().define_job(client_name(c), "stream"));
    }
    std::vector<std::vector<Fingerprint>> latest(kClusterClients);

    auto nic_bytes = [&] {
      std::uint64_t total = 0;
      for (std::size_t k = 0; k < cluster.server_count(); ++k) {
        total += cluster.server(k).nic().bytes_transferred();
      }
      return total;
    };
    auto log_seconds = [&] {
      double total = 0;
      for (std::size_t k = 0; k < cluster.server_count(); ++k) {
        total += cluster.server(k).clocks().log_disk;
      }
      return total;
    };
    auto lpc_totals = [&] {
      std::pair<double, double> hm{0, 0};
      for (std::size_t k = 0; k < cluster.server_count(); ++k) {
        const cache::LpcCache& lpc = cluster.server(k).chunk_store().lpc();
        hm.first += static_cast<double>(lpc.hits());
        hm.second += static_cast<double>(lpc.misses());
      }
      return hm;
    };

    // One generation: dedup-1 for every client, then cluster dedup-2.
    auto generation_backup = [&](bool trace_it, Iteration& it) {
      for (std::size_t c = 0; c < kClusterClients; ++c) {
        latest[c] = relabel(streams[c].next_version(chunks), opts_.seed);
      }
      const std::uint64_t nic0 = nic_bytes();
      const double log0 = log_seconds();
      const std::int64_t t0 = bench::now_ns();
      const std::uint32_t job_span =
          trace_it ? tracer_.open("job.backup", root_) : 0;
      for (std::size_t c = 0; c < kClusterClients; ++c) {
        core::FileStore& store = cluster.server(c).file_store();
        const std::span<const Fingerprint> fps(latest[c]);
        bool ok = false;
        if (trace_it) {
          ok = traced_stream_backup(store, jobs[c], client_name(c),
                                    cluster.director().next_version(jobs[c]),
                                    fps, job_span);
        } else {
          core::BackupEngine engine(client_name(c), &cluster.director());
          ok = engine.run_backup_stream(jobs[c], fps, store, kStreamChunkSize)
                   .ok();
        }
        if (!count(ok, "dedup-1")) return false;
        it.logical += static_cast<double>(fps.size()) * kStreamChunkSize;
      }
      if (trace_it) tracer_.close(job_span);
      it.dedup1_s = static_cast<double>(bench::now_ns() - t0) * 1e-9;
      counts_.log_model_s += log_seconds() - log0;

      const net::TransportStats net0 = cluster.transport_stats();
      const std::int64_t t1 = bench::now_ns();
      if (trace_it) dedup2_span_ = tracer_.open("job.dedup2", root_);
      Result<core::ClusterDedup2Result> round =
          cluster.run_dedup2(/*force_siu=*/true);
      if (trace_it) {
        if (phase_span_ != 0) tracer_.close(phase_span_);
        phase_span_ = 0;
        tracer_.close(dedup2_span_);
        dedup2_span_ = 0;
      }
      it.dedup2_s = static_cast<double>(bench::now_ns() - t1) * 1e-9;
      if (!count(round.ok() && !round.value().degraded(), "cluster dedup-2")) {
        return false;
      }
      const net::TransportStats net1 = cluster.transport_stats();
      counts_.cluster_model_s += round.value().total_seconds();
      counts_.net_frames +=
          static_cast<double>(net1.frames_sent - net0.frames_sent);
      counts_.net_wire += static_cast<double>(net1.bytes_sent - net0.bytes_sent);
      counts_.net_raw +=
          static_cast<double>(net1.raw_bytes_sent - net0.raw_bytes_sent);
      it.wire += nic_bytes() - nic0;
      return true;
    };

    Iteration first;
    if (!generation_backup(false, first)) return 0;

    double logical_total = first.logical;
    double logical_measured = 0;
    std::uint64_t wire = 0;
    for (std::size_t i = 0; i < sizes_.iterations; ++i) {
      Iteration it;
      begin_iteration(traced);
      if (!generation_backup(traced, it)) return 0;

      // Restore every client's newest version through the next server.
      const auto lpc0 = lpc_totals();
      for (std::size_t c = 0; c < kClusterClients; ++c) {
        const std::size_t via = (c + 1) % kClusterClients;
        const std::uint32_t version =
            cluster.director().next_version(jobs[c]) - 1;
        const std::int64_t t0 = bench::now_ns();
        Result<core::Dataset> got =
            traced ? traced_cluster_restore(cluster, jobs[c], version, via)
                   : cluster.restore(jobs[c], version, via);
        it.restore_s += static_cast<double>(bench::now_ns() - t0) * 1e-9;
        if (!count(got.ok(), "cluster restore")) return 0;
        it.restored += static_cast<double>(got.value().total_bytes());
        check_same(got.value(),
                   stream_dataset(client_name(c), version, latest[c]),
                   "cluster restore of " + client_name(c));
      }
      const auto lpc1 = lpc_totals();
      counts_.lpc_hits += lpc1.first - lpc0.first;
      counts_.lpc_misses += lpc1.second - lpc0.second;
      end_iteration(traced, it);
      logical_total += it.logical;
      logical_measured += it.logical;
      wire += it.wire;
    }
    if (!traced) {
      record_lifetime_ratios(
          static_cast<double>(cluster.repository().stored_bytes()),
          logical_total, static_cast<double>(wire), logical_measured);
    }
    Digest h;
    hash_director(h, cluster.director());
    h.u64(cluster.repository().stored_bytes());
    h.u64(nic_bytes());
    for (std::size_t k = 0; k < cluster.server_count(); ++k) {
      hash_clocks(h, cluster.server(k).clocks());
    }
    return h.value();
  });
}

// ---- Output -----------------------------------------------------------------

void Runner::emit() {
  e2e_["peak_rss_MiB"].push_back(peak_rss_mib());
  // Restate timings at the nominal host speed (see reference_task).
  const double slowdown = summarize(host_ref_).median / kReferenceSeconds;
  e2e_["host.ref_s"] = host_ref_;
  for (const char* name : {"setup_s", "dedup2_s", "backup_MBps",
                           "dedup1_MBps", "restore_MBps"}) {
    std::vector<double>& samples = e2e_[name];
    e2e_[std::string("wall.") + name] = samples;
    const bool rate = std::string_view(name).ends_with("MBps");
    for (double& v : samples) v = rate ? v * slowdown : v / slowdown;
  }
  if (opts_.traced()) {
    const double untraced = summarize(untraced_primary_).median;
    const double traced = summarize(traced_primary_).median;
    layer_["trace.overhead_frac"].push_back(
        untraced > 0 ? 1.0 - traced / untraced : 0.0);
    auto hist = [&](const char* name, const bench::LogHistogram& h, double q,
                    double scale) {
      layer_[name] = {h.quantile(q) * scale};
    };
    hist("chunking.file_ms_p50", chunk_file_ns_, 0.50, 1e-6);
    hist("chunking.file_ms_p99", chunk_file_ns_, 0.99, 1e-6);
    hist("chunk_log.append_us_p50", append_ns_, 0.50, 1e-3);
    hist("chunk_log.append_us_p99", append_ns_, 0.99, 1e-3);
    hist("restore.read_chunk_us_p50", read_chunk_ns_, 0.50, 1e-3);
    hist("restore.read_chunk_us_p99", read_chunk_ns_, 0.99, 1e-3);
    // Coverage is a floor: report the worst traced iteration.
    std::vector<double>& coverage = layer_["trace.coverage_frac"];
    if (!coverage.empty()) {
      coverage = {*std::min_element(coverage.begin(), coverage.end())};
    }
  }

  std::string out = "{\"workload\":\"" + opts_.workload +
                    "\",\"seed\":" + std::to_string(opts_.seed) +
                    ",\"traced\":" + (opts_.traced() ? "true" : "false") +
                    ",\"lifetimes\":" + std::to_string(lifetimes_run_) +
                    ",\"iterations\":" + std::to_string(iterations_) +
                    ",\"correct\":" + (failed_ == 0 ? "true" : "false") +
                    ",\"metrics\":{";
  // Every metric the run recorded, by name. Units and directions live in
  // BENCHMARK.json only.
  bool first = true;
  for (const auto* from : {&e2e_, &layer_}) {
    for (const auto& [name, samples] : *from) {
      const Summary s = summarize(samples);
      out += std::string(first ? "" : ",") + "\"" + name +
             "\":{\"value\":" + num(s.median) +
             ",\"samples\":" + std::to_string(s.n) + ",\"p25\":" + num(s.p25) +
             ",\"p75\":" + num(s.p75) + ",\"min\":" + num(s.min) +
             ",\"max\":" + num(s.max) + "}";
      first = false;
    }
  }
  out += "},\"ops\":{\"attempted\":" + std::to_string(attempted_) +
         ",\"failed\":" + std::to_string(failed_) + "}}";
  std::printf("%s\n", out.c_str());
}

int Runner::run() {
  g_scratch = opts_.dir;
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  if (ec) {
    std::fprintf(stderr, "bench_e2e: cannot create %s\n",
                 opts_.dir.c_str());
    return 2;
  }
  if (opts_.workload == "first-write") first_write();
  if (opts_.workload == "second-write") second_write();
  if (opts_.workload == "restore-aged") restore_aged();
  if (opts_.workload == "cluster-daily") cluster_daily();
  fs::remove_all(opts_.dir, ec);

  if (opts_.traced()) {
    if (Status s = tracer_.write_jsonl(opts_.trace_path); !s.ok()) {
      std::fprintf(stderr, "bench_e2e: %s\n", s.to_string().c_str());
      return 2;
    }
  }
  emit();
  return failed_ == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Runner runner(parse(argc, argv));
  return runner.run();
}
