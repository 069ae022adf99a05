// debar_clusterd: the cluster protocol running outside the test harness —
// one OS process per backup server, real TCP between them.
//
//   $ ./debar_clusterd --transport=socket --w=1 --dir=/tmp/debar-clusterd
//   $ ./debar_clusterd --transport=loopback --w=1 --dir=/tmp/debar-loop
//
// Both modes run the identical per-node protocol code (core::ClusterNode)
// over the identical file-backed state layout, differing ONLY in the
// transport and the execution vessel:
//
//   loopback   one process, one thread per node, blocking in-process
//              queues (net::LoopbackTransport);
//   socket     the driver process hosts node 0 plus the restore client
//              and fork/execs one child process per remaining node; every
//              exchange crosses a real TCP connection on 127.0.0.1
//              (net::SocketTransport). Processes learn each other's
//              ephemeral ports through port files under <dir>/run/.
//
// The run: two backup generations ingested at node 0, each closed by a
// five-phase dedup-2 round across all 2^w nodes; then a maintenance round
// (DESIGN.md §5k) expires generation 1 under retention keep-last-1, marks
// live roots across every node, rebuilds every index copy, and reclaims
// the expired chunks; then every surviving chunk is restored through
// node 0 (remote index parts answer locate requests from their serve
// loops) and verified, after probing that a reclaimed chunk is
// unlocatable; then Control{kShutdown} releases the peers. On-disk
// artifacts — each node's index, the chunk repository nodes, and
// summary.txt — are byte-deterministic, so a loopback tree and a socket
// tree of the same workload must be identical; the net-socket
// differential test holds the two modes to exactly that.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/sha1.hpp"
#include "core/backup_engine.hpp"
#include "core/cluster_node.hpp"
#include "core/ingest_service.hpp"
#include "core/maintenance.hpp"
#include "index/disk_index.hpp"
#include "net/loopback_transport.hpp"
#include "net/socket_transport.hpp"

using namespace debar;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kRepoNodes = 2;
constexpr std::size_t kChunkBytes = 512;
// Generation 1: fps [0, 80). Generation 2: fps [40, 120) — half dedups.
constexpr std::uint64_t kV1First = 0, kV1Count = 80;
constexpr std::uint64_t kV2First = 40, kV2Count = 80;
constexpr int kRounds = 2;
constexpr auto kPortFileTimeout = std::chrono::seconds(20);

Fingerprint fp_of(std::uint64_t i) { return Sha1::hash_counter(i); }

struct Options {
  std::string transport = "loopback";
  unsigned w = 1;
  fs::path dir = "/tmp/debar-clusterd";
  int node = 0;  // socket mode: >0 marks a forked peer process
  bool codec = false;  // --codec=on: coalesced + compressed wire frames
  /// --ingest=on: generations reach node 0's File Store through the
  /// streaming IngestOpen/Batch/Close wire exchange (DESIGN.md §5l)
  /// instead of direct FileStore calls. Byte-identical on-disk state.
  bool ingest_wire = false;
};

net::WireCodecConfig codec_of(const Options& opt) {
  return opt.codec ? net::WireCodecConfig::enabled() : net::WireCodecConfig{};
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eat = [&](const char* flag) -> std::optional<std::string> {
      const std::size_t len = std::strlen(flag);
      if (arg.compare(0, len, flag) != 0) return std::nullopt;
      return arg.substr(len);
    };
    if (auto v = eat("--transport=")) {
      opt.transport = *v;
    } else if (auto v = eat("--w=")) {
      opt.w = static_cast<unsigned>(std::stoul(*v));
    } else if (auto v = eat("--dir=")) {
      opt.dir = *v;
    } else if (auto v = eat("--node=")) {
      opt.node = std::stoi(*v);
    } else if (auto v = eat("--codec=")) {
      if (*v != "on" && *v != "off") {
        std::fprintf(stderr, "--codec must be on or off\n");
        return false;
      }
      opt.codec = *v == "on";
    } else if (auto v = eat("--ingest=")) {
      if (*v != "on" && *v != "off") {
        std::fprintf(stderr, "--ingest must be on or off\n");
        return false;
      }
      opt.ingest_wire = *v == "on";
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (opt.transport != "loopback" && opt.transport != "socket") {
    std::fprintf(stderr, "--transport must be loopback or socket\n");
    return false;
  }
  if (opt.w > 3) {
    std::fprintf(stderr, "--w must be 0..3\n");
    return false;
  }
  return true;
}

core::BackupServerConfig node_server_config(unsigned w) {
  core::BackupServerConfig cfg;
  cfg.index_params = {.prefix_bits = 6, .blocks_per_bucket = 2};
  cfg.index_params.skip_bits = w;
  cfg.filter_params = {.hash_bits = 8, .capacity = 100000};
  cfg.chunk_store.cache_params = {.hash_bits = 4, .capacity = 1000000};
  cfg.chunk_store.io_buckets = 8;
  cfg.chunk_store.siu_threshold = 1;
  return cfg;
}

/// One node's durable + simulated state. The repository pointer is the
/// file-backed store for node 0 (the only node that containers or reads
/// chunks in this workload — every backup and restore routes through it)
/// and a never-touched in-memory stand-in elsewhere. Retention keep-last-1
/// expires generation 1 in the maintenance round between dedup-2 and the
/// restores (only node 0's director ever holds versions).
struct NodeState {
  std::unique_ptr<storage::ChunkRepository> owned_repo;
  core::Director director{
      core::DirectorConfig{.retention = {.keep_last = 1}}};
  std::unique_ptr<core::BackupServer> server;
};

bool open_file_repo(const fs::path& dir, NodeState& st) {
  fs::create_directories(dir / "repo");
  std::vector<std::unique_ptr<storage::BlockDevice>> devices;
  for (std::size_t j = 0; j < kRepoNodes; ++j) {
    auto device = storage::FileBlockDevice::open(
        dir / "repo" / ("node" + std::to_string(j) + ".log"));
    if (!device.ok()) {
      std::fprintf(stderr, "repo device: %s\n",
                   device.error().to_string().c_str());
      return false;
    }
    devices.push_back(std::move(device).value());
  }
  auto repo = storage::ChunkRepository::open(std::move(devices));
  if (!repo.ok()) {
    std::fprintf(stderr, "repo open: %s\n", repo.error().to_string().c_str());
    return false;
  }
  st.owned_repo = std::move(repo).value();
  return true;
}

/// With two or more nodes every node also hosts the backup copy of
/// partition (k - 1) mod n (DESIGN.md §5g), file-backed next to the
/// primary as replica.bin.
bool attach_file_replica(const fs::path& node_dir, std::size_t k, unsigned w,
                         NodeState& st) {
  const std::size_t n = std::size_t{1} << w;
  if (n < 2) return true;
  const std::size_t part = core::PartitionMap::replica_part_of(k, n);
  auto device = storage::FileBlockDevice::open(node_dir / "replica.bin");
  if (!device.ok()) {
    std::fprintf(stderr, "replica device: %s\n",
                 device.error().to_string().c_str());
    return false;
  }
  auto idx = index::DiskIndex::create(std::move(device).value(),
                                      st.server->config().index_params);
  if (!idx.ok()) {
    std::fprintf(stderr, "replica create: %s\n",
                 idx.error().to_string().c_str());
    return false;
  }
  st.server->install_copy(part, /*via_store=*/false, std::move(idx).value());
  return true;
}

bool bring_up_node(const fs::path& dir, std::size_t k, unsigned w,
                   NodeState& st) {
  if (k == 0) {
    if (!open_file_repo(dir, st)) return false;
  } else {
    st.owned_repo = std::make_unique<storage::ChunkRepository>(
        kRepoNodes, sim::DiskProfile::PaperRaid());
  }
  const core::BackupServerConfig cfg = node_server_config(w);
  st.server = std::make_unique<core::BackupServer>(
      k, cfg, st.owned_repo.get(), &st.director);

  const fs::path node_dir = dir / ("node" + std::to_string(k));
  fs::create_directories(node_dir);
  auto device = storage::FileBlockDevice::open(node_dir / "index.bin");
  if (!device.ok()) {
    std::fprintf(stderr, "index device: %s\n",
                 device.error().to_string().c_str());
    return false;
  }
  auto idx = index::DiskIndex::create(std::move(device).value(),
                                      st.server->config().index_params);
  if (!idx.ok()) {
    std::fprintf(stderr, "index create: %s\n",
                 idx.error().to_string().c_str());
    return false;
  }
  st.server->chunk_store().index() = std::move(idx).value();
  return attach_file_replica(node_dir, k, w, st);
}

/// Loopback clusterd shares one repository across its node threads; the
/// socket children can't, but nothing but node 0 touches it either way.
bool bring_up_node_shared_repo(const fs::path& dir, std::size_t k, unsigned w,
                               storage::ChunkRepository* repo, NodeState& st) {
  const core::BackupServerConfig cfg = node_server_config(w);
  st.server = std::make_unique<core::BackupServer>(k, cfg, repo,
                                                   &st.director);
  const fs::path node_dir = dir / ("node" + std::to_string(k));
  fs::create_directories(node_dir);
  auto device = storage::FileBlockDevice::open(node_dir / "index.bin");
  if (!device.ok()) return false;
  auto idx = index::DiskIndex::create(std::move(device).value(),
                                      st.server->config().index_params);
  if (!idx.ok()) return false;
  st.server->chunk_store().index() = std::move(idx).value();
  return attach_file_replica(node_dir, k, w, st);
}

void ingest(core::FileStore& fs_store, std::uint64_t job, std::uint64_t first,
            std::uint64_t count) {
  fs_store.begin_job(job);
  fs_store.begin_file(
      {.path = "s", .size = count * kChunkBytes, .mtime = 0, .mode = 0644});
  for (std::uint64_t i = first; i < first + count; ++i) {
    const Fingerprint f = fp_of(i);
    if (fs_store.offer_fingerprint(f, kChunkBytes)) {
      const auto payload = core::BackupEngine::synthetic_payload(f,
                                                                 kChunkBytes);
      (void)fs_store.receive_chunk(f, ByteSpan(payload.data(),
                                               payload.size()));
    }
  }
  fs_store.end_file();
  (void)fs_store.end_job();
}

/// The wire twin of ingest(): the same generation streamed through the
/// IngestOpen/Batch/Close exchange over `lane`. The server ends up with
/// the identical File Store state — offers in the same order, payloads
/// for exactly the admitted positions — so the on-disk artifacts stay
/// byte-identical to the direct path.
bool wire_ingest(net::Endpoint& lane, std::uint64_t job, std::uint64_t first,
                 std::uint64_t count) {
  core::IngestClient::Config cc;
  cc.epoch = 0;  // PartitionMap::identity epoch
  core::IngestClient client(&lane, net::EndpointId{0}, cc);
  if (Result<std::uint64_t> opened = client.open(/*tenant=*/0, job);
      !opened.ok()) {
    std::fprintf(stderr, "wire ingest open: %s\n",
                 opened.error().to_string().c_str());
    return false;
  }
  std::vector<Fingerprint> fps;
  fps.reserve(count);
  for (std::uint64_t i = first; i < first + count; ++i) {
    fps.push_back(fp_of(i));
  }
  if (Status s = client.stream_synthetic(
          "s", std::span<const Fingerprint>(fps),
          static_cast<std::uint32_t>(kChunkBytes));
      !s.ok()) {
    std::fprintf(stderr, "wire ingest stream: %s\n", s.to_string().c_str());
    return false;
  }
  if (Result<core::IngestClientStats> closed = client.close(); !closed.ok()) {
    std::fprintf(stderr, "wire ingest close: %s\n",
                 closed.error().to_string().c_str());
    return false;
  }
  return true;
}

/// The driver role: node 0 ingests both generations (directly, or through
/// the streaming wire exchange when `lane` is set), anchors both rounds,
/// restores and verifies every chunk, then releases the peers.
int run_driver(NodeState& st, net::Endpoint& client, unsigned w,
               const fs::path& dir, net::Endpoint* lane = nullptr) {
  const std::size_t n = std::size_t{1} << w;
  core::ClusterNode node({.node = 0, .map = core::PartitionMap::identity(w)},
                         st.server.get());
  const std::uint64_t job = st.director.define_job("cluster", "job");

  // With --ingest=on, node 0 also runs the server half of the ingest
  // protocol on its own serve thread for the driver's one lane.
  std::optional<core::IngestServer> ingest_server;
  std::thread ingest_thread;
  if (lane != nullptr) {
    core::IngestServer::Config sc;
    sc.epoch = 0;
    sc.lanes = {core::kIngestLaneBase};
    ingest_server.emplace(st.server.get(), sc);
    ingest_thread = std::thread([&] { ingest_server->serve(); });
  }

  std::vector<core::NodeRoundResult> rounds;
  const std::uint64_t firsts[kRounds] = {kV1First, kV2First};
  const std::uint64_t counts[kRounds] = {kV1Count, kV2Count};
  for (int r = 0; r < kRounds; ++r) {
    if (lane != nullptr) {
      if (!wire_ingest(*lane, job, firsts[r], counts[r])) {
        ingest_server->request_stop();
        ingest_thread.join();
        return 1;
      }
    } else {
      ingest(st.server->file_store(), job, firsts[r], counts[r]);
    }
    Result<core::NodeRoundResult> round =
        node.run_dedup2_round(/*force_siu=*/true);
    if (!round.ok()) {
      std::fprintf(stderr, "round %d failed: %s\n", r + 1,
                   round.error().to_string().c_str());
      if (ingest_server.has_value()) {
        ingest_server->request_stop();
        ingest_thread.join();
      }
      return 1;
    }
    rounds.push_back(round.value());
  }
  // Ingest is done; the serve thread has nothing left to answer.
  if (ingest_server.has_value()) {
    ingest_server->request_stop();
    ingest_thread.join();
  }

  // Maintenance round (DESIGN.md §5k): retention keep-last-1 expires
  // generation 1, the mark/install exchanges rebuild every index copy on
  // every node, and the sweep reclaims generation 1's exclusive chunks.
  core::MaintenanceJob maintenance(node, st.director, *st.owned_repo,
                                   {.compact_threshold = 0.6});
  if (Status m = maintenance.execute(); !m.ok()) {
    std::fprintf(stderr, "maintenance round failed: %s\n",
                 m.to_string().c_str());
    return 1;
  }
  const core::MaintenanceReport& mrep = maintenance.report();

  // A reclaimed chunk must be unlocatable everywhere — probe before any
  // restore warms the locality cache with surviving containers.
  const core::FileRecord expired{.chunk_fps = {fp_of(0)}};
  core::Dataset dead;
  core::DatasetSink probe(dead);
  if (node.restore({&expired, 1}, client, probe).ok()) {
    std::fprintf(stderr, "expired chunk 0 still restorable after GC\n");
    return 1;
  }

  // Restore the surviving generation through node 0 as one recipe and
  // verify it against the synthetic payloads.
  const core::JobVersionRecord survivor = *st.director.latest_version(job);
  core::Dataset restored;
  core::DatasetSink collect(restored);
  if (Status s = node.restore(survivor.files, client, collect); !s.ok()) {
    std::fprintf(stderr, "restore failed: %s\n", s.to_string().c_str());
    return 1;
  }
  std::vector<Byte> expected;
  for (std::uint64_t i = kV2First; i < kV2First + kV2Count; ++i) {
    const auto payload = core::BackupEngine::synthetic_payload(fp_of(i),
                                                               kChunkBytes);
    expected.insert(expected.end(), payload.begin(), payload.end());
  }
  if (restored.files[0].content != expected) {
    std::fprintf(stderr, "surviving generation restored with wrong content\n");
    return 1;
  }

  // Release the peers' serve loops.
  for (std::size_t j = 1; j < n; ++j) {
    Status sent = st.server->endpoint().send(
        static_cast<net::EndpointId>(j),
        net::Control{.op = net::Control::kShutdown});
    if (!sent.ok()) {
      std::fprintf(stderr, "shutdown of node %zu failed: %s\n", j,
                   sent.to_string().c_str());
      return 1;
    }
  }

  std::ostringstream summary;
  summary << "debar_clusterd w=" << w << " nodes=" << n
          << (lane != nullptr ? " ingest=wire" : "") << "\n";
  for (int r = 0; r < kRounds; ++r) {
    summary << "round" << (r + 1) << " undetermined=" << rounds[r].undetermined
            << " duplicates=" << rounds[r].duplicates
            << " new_chunks=" << rounds[r].new_chunks
            << " new_bytes=" << rounds[r].new_bytes
            << " siu=" << (rounds[r].ran_siu ? 1 : 0) << "\n";
  }
  summary << "maintenance expired=" << mrep.versions_expired
          << " rewritten=" << mrep.versions_rewritten
          << " containers_deleted=" << mrep.containers_deleted
          << " live_chunks=" << mrep.live_chunks
          << " dead_chunks=" << mrep.dead_chunks
          << " reclaimed_bytes=" << mrep.bytes_reclaimed << "\n";
  summary << "restored_chunks=" << survivor.files[0].chunk_fps.size()
          << " restored_bytes=" << restored.files[0].content.size()
          << " expired_unlocatable=ok verified=ok\n";
  std::ofstream out(dir / "summary.txt", std::ios::trunc);
  out << summary.str();
  out.close();
  std::printf("%s", summary.str().c_str());
  return out.good() ? 0 : 1;
}

/// The peer role: both rounds, the maintenance round, then answer
/// locates until shutdown.
int run_peer(NodeState& st, unsigned w, std::size_t k) {
  core::ClusterNode node({.node = k, .map = core::PartitionMap::identity(w)},
                         st.server.get());
  for (int r = 0; r < kRounds; ++r) {
    Result<core::NodeRoundResult> round =
        node.run_dedup2_round(/*force_siu=*/true);
    if (!round.ok()) {
      std::fprintf(stderr, "node %zu round %d failed: %s\n", k, r + 1,
                   round.error().to_string().c_str());
      return 1;
    }
  }
  if (Status m = node.serve_maintenance(/*driver=*/0); !m.ok()) {
    std::fprintf(stderr, "node %zu maintenance loop failed: %s\n", k,
                 m.to_string().c_str());
    return 1;
  }
  Status served = node.serve_restores(/*via=*/0);
  if (!served.ok()) {
    std::fprintf(stderr, "node %zu serve loop failed: %s\n", k,
                 served.to_string().c_str());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Loopback vessel: one process, one thread per node.

int run_loopback(const Options& opt) {
  const std::size_t n = std::size_t{1} << opt.w;
  NodeState driver_state;
  if (!bring_up_node(opt.dir, 0, opt.w, driver_state)) return 1;
  std::vector<NodeState> peers(n > 0 ? n - 1 : 0);
  for (std::size_t k = 1; k < n; ++k) {
    if (!bring_up_node_shared_repo(opt.dir, k, opt.w,
                                   driver_state.owned_repo.get(),
                                   peers[k - 1])) {
      return 1;
    }
  }

  net::LoopbackTransport transport;
  const net::EndpointId client_id = net::kClientEndpointId;
  auto attach = [&](NodeState& st, std::size_t k) {
    Status reg = transport.register_endpoint(static_cast<net::EndpointId>(k),
                                             &st.server->nic());
    if (!reg.ok()) return false;
    st.server->attach_endpoint(std::make_unique<net::Endpoint>(
        &transport, static_cast<net::EndpointId>(k), net::RetryPolicy{},
        codec_of(opt)));
    return true;
  };
  if (!attach(driver_state, 0)) return 1;
  for (std::size_t k = 1; k < n; ++k) {
    if (!attach(peers[k - 1], k)) return 1;
  }
  if (!transport.register_endpoint(client_id, nullptr).ok()) return 1;
  net::Endpoint client(&transport, client_id, net::RetryPolicy{},
                       codec_of(opt));
  std::optional<net::Endpoint> lane;
  if (opt.ingest_wire) {
    if (!transport.register_endpoint(core::kIngestLaneBase, nullptr).ok()) {
      return 1;
    }
    lane.emplace(&transport, core::kIngestLaneBase, net::RetryPolicy{},
                 codec_of(opt));
  }

  std::vector<std::thread> threads;
  std::vector<int> peer_rc(n, 0);
  for (std::size_t k = 1; k < n; ++k) {
    threads.emplace_back([&, k] {
      peer_rc[k] = run_peer(peers[k - 1], opt.w, k);
    });
  }
  int rc = run_driver(driver_state, client, opt.w, opt.dir,
                      lane.has_value() ? &*lane : nullptr);
  for (std::thread& t : threads) t.join();
  for (std::size_t k = 1; k < n; ++k) rc = rc != 0 ? rc : peer_rc[k];
  return rc;
}

// ---------------------------------------------------------------------------
// Socket vessel: one process per node, ports exchanged via <dir>/run/.

void write_port_file(const fs::path& dir, std::size_t k,
                     const std::string& contents) {
  const fs::path final_path = dir / "run" / ("node" + std::to_string(k) +
                                             ".port");
  const fs::path tmp_path = final_path.string() + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    out << contents;
  }
  fs::rename(tmp_path, final_path);  // atomic publish
}

std::optional<std::string> wait_port_file(const fs::path& dir,
                                          std::size_t k) {
  const fs::path path = dir / "run" / ("node" + std::to_string(k) + ".port");
  const auto give_up = std::chrono::steady_clock::now() + kPortFileTimeout;
  while (std::chrono::steady_clock::now() < give_up) {
    if (fs::exists(path)) {
      std::ifstream in(path);
      std::string contents((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
      if (!contents.empty() && contents.back() == '\n') return contents;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return std::nullopt;
}

/// Resolve every other node's published port into the transport.
bool bind_peer_addresses(net::SocketTransport& transport, const fs::path& dir,
                         std::size_t self, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    if (k == self) continue;
    const std::optional<std::string> published = wait_port_file(dir, k);
    if (!published.has_value()) {
      std::fprintf(stderr, "node %zu never published its port\n", k);
      return false;
    }
    std::istringstream in(*published);
    std::string line;
    std::getline(in, line);
    Result<net::Address> addr = net::Address::parse(line);
    if (!addr.ok()) {
      std::fprintf(stderr, "node %zu published '%s': %s\n", k, line.c_str(),
                   addr.error().to_string().c_str());
      return false;
    }
    transport.bind_address(static_cast<net::EndpointId>(k), addr.value());
  }
  return true;
}

int run_socket_peer(const Options& opt) {
  const std::size_t n = std::size_t{1} << opt.w;
  const auto k = static_cast<std::size_t>(opt.node);
  NodeState st;
  if (!bring_up_node(opt.dir, k, opt.w, st)) return 1;

  net::SocketTransport transport{net::AddressMap{}};
  Status reg = transport.register_endpoint(static_cast<net::EndpointId>(k),
                                           &st.server->nic());
  if (!reg.ok()) {
    std::fprintf(stderr, "node %zu listen: %s\n", k, reg.to_string().c_str());
    return 1;
  }
  write_port_file(
      opt.dir, k,
      transport.address_of(static_cast<net::EndpointId>(k))->to_string() +
          "\n");
  if (!bind_peer_addresses(transport, opt.dir, k, n)) return 1;
  st.server->attach_endpoint(std::make_unique<net::Endpoint>(
      &transport, static_cast<net::EndpointId>(k), net::RetryPolicy{},
      codec_of(opt)));
  return run_peer(st, opt.w, k);
}

int run_socket_driver(const Options& opt, char** argv) {
  const std::size_t n = std::size_t{1} << opt.w;
  fs::create_directories(opt.dir / "run");
  NodeState st;
  if (!bring_up_node(opt.dir, 0, opt.w, st)) return 1;

  net::SocketTransport transport{net::AddressMap{}};
  const net::EndpointId client_id = net::kClientEndpointId;
  if (!transport.register_endpoint(0, &st.server->nic()).ok() ||
      !transport.register_endpoint(client_id, nullptr).ok()) {
    std::fprintf(stderr, "driver listen failed\n");
    return 1;
  }
  write_port_file(opt.dir, 0, transport.address_of(0)->to_string() + "\n");

  // One child process per remaining node, re-executing this binary.
  std::vector<pid_t> children;
  for (std::size_t k = 1; k < n; ++k) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "fork failed\n");
      return 1;
    }
    if (pid == 0) {
      const std::string transport_arg = "--transport=socket";
      const std::string w_arg = "--w=" + std::to_string(opt.w);
      const std::string dir_arg = "--dir=" + opt.dir.string();
      const std::string node_arg = "--node=" + std::to_string(k);
      const std::string codec_arg =
          std::string("--codec=") + (opt.codec ? "on" : "off");
      const std::string ingest_arg =
          std::string("--ingest=") + (opt.ingest_wire ? "on" : "off");
      char* child_argv[] = {argv[0], const_cast<char*>(transport_arg.c_str()),
                            const_cast<char*>(w_arg.c_str()),
                            const_cast<char*>(dir_arg.c_str()),
                            const_cast<char*>(node_arg.c_str()),
                            const_cast<char*>(codec_arg.c_str()),
                            const_cast<char*>(ingest_arg.c_str()), nullptr};
      ::execv(argv[0], child_argv);
      std::perror("execv");
      _exit(127);
    }
    children.push_back(pid);
  }

  if (!bind_peer_addresses(transport, opt.dir, 0, n)) return 1;
  st.server->attach_endpoint(std::make_unique<net::Endpoint>(
      &transport, net::EndpointId{0}, net::RetryPolicy{}, codec_of(opt)));
  net::Endpoint client(&transport, client_id, net::RetryPolicy{},
                       codec_of(opt));
  std::optional<net::Endpoint> lane;
  if (opt.ingest_wire) {
    // The lane lives in the driver process too; SocketTransport routes
    // frames between locally registered endpoints over real sockets.
    if (!transport.register_endpoint(core::kIngestLaneBase, nullptr).ok()) {
      std::fprintf(stderr, "lane listen failed\n");
      return 1;
    }
    lane.emplace(&transport, core::kIngestLaneBase, net::RetryPolicy{},
                 codec_of(opt));
  }

  int rc = run_driver(st, client, opt.w, opt.dir,
                      lane.has_value() ? &*lane : nullptr);

  for (const pid_t pid : children) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "child %d exited abnormally\n", pid);
      rc = rc != 0 ? rc : 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;
  fs::create_directories(opt.dir);
  if (opt.transport == "loopback") return run_loopback(opt);
  if (opt.node > 0) return run_socket_peer(opt);
  return run_socket_driver(opt, argv);
}
