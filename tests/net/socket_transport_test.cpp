// SocketTransport over real TCP, and the POSIX edges beneath it: short
// reads and writes, EINTR, peer resets mid-frame, truncated envelopes,
// and reconnect-after-reset. Everything runs against 127.0.0.1 with
// ephemeral ports, so the suite is hermetic; `ctest -L net-socket`.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "common/sha1.hpp"
#include "net/socket_io.hpp"
#include "net/socket_transport.hpp"

namespace debar::net {
namespace {

constexpr std::chrono::seconds kTestDeadline{10};

struct Harness {
  sim::SimClock clock0, clock1;
  sim::NicModel nic0{{.bytes_per_sec = 1.0e6}, &clock0};
  sim::NicModel nic1{{.bytes_per_sec = 1.0e6}, &clock1};
};

Frame make_frame(EndpointId from, EndpointId to, std::uint32_t seq,
                 std::uint64_t tag) {
  FingerprintBatch batch;
  batch.fps.push_back(Sha1::hash_counter(tag));
  return Frame{from, to, seq, encode(from, to, seq, Message{batch})};
}

// ---------------------------------------------------------------------------
// socket_io primitives.
// ---------------------------------------------------------------------------

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~Pipe() {
    for (int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
  void close_write() {
    ::close(fds[0]);
    fds[0] = -1;
  }
};

TEST(SocketIoTest, FullReadSurvivesShortReadsAndWrites) {
  // 4 MiB through a socket pair: far beyond any socket buffer, so both
  // sides necessarily see many short operations and must loop.
  Pipe pipe;
  std::vector<Byte> out(4u << 20);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<Byte>(i * 2654435761u >> 24);
  }
  std::thread writer([&] {
    EXPECT_TRUE(io::write_full(pipe.fds[0], out.data(), out.size(),
                               Deadline::after(kTestDeadline))
                    .ok());
  });
  std::vector<Byte> in(out.size());
  Status read = io::read_full(pipe.fds[1], in.data(), in.size(),
                              Deadline::after(kTestDeadline));
  writer.join();
  ASSERT_TRUE(read.ok()) << read.to_string();
  EXPECT_EQ(in, out);
}

TEST(SocketIoTest, ReadFullRetriesThroughEintr) {
  // A no-op handler installed WITHOUT SA_RESTART makes every signal
  // interrupt the blocking poll with EINTR; read_full must resume with
  // its remaining budget instead of failing.
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sa.sa_flags = 0;  // deliberately not SA_RESTART
  struct sigaction old{};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  Pipe pipe;
  std::atomic<bool> reading{false};
  Byte buf[8] = {};
  std::thread reader([&] {
    reading.store(true);
    Status read = io::read_full(pipe.fds[1], buf, sizeof(buf),
                                Deadline::after(kTestDeadline));
    EXPECT_TRUE(read.ok()) << read.to_string();
  });
  while (!reading.load()) std::this_thread::yield();
  for (int i = 0; i < 20; ++i) {
    ::pthread_kill(reader.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Byte payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(io::write_full(pipe.fds[0], payload, sizeof(payload),
                             Deadline::after(kTestDeadline))
                  .ok());
  reader.join();
  EXPECT_EQ(std::memcmp(buf, payload, sizeof(payload)), 0);
  ::sigaction(SIGUSR1, &old, nullptr);
}

TEST(SocketIoTest, ReadFullReportsPeerCloseMidCount) {
  Pipe pipe;
  const Byte half[5] = {9, 9, 9, 9, 9};
  ASSERT_TRUE(io::write_full(pipe.fds[0], half, sizeof(half),
                             Deadline::after(kTestDeadline))
                  .ok());
  pipe.close_write();

  Byte buf[10];
  Status read = io::read_full(pipe.fds[1], buf, sizeof(buf),
                              Deadline::after(kTestDeadline));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), Errc::kUnavailable);
}

TEST(SocketIoTest, ReadFullTimesOutOnSilentPeer) {
  Pipe pipe;
  Byte buf[4];
  Status read = io::read_full(pipe.fds[1], buf, sizeof(buf),
                              Deadline::after(std::chrono::milliseconds(30)));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), Errc::kUnavailable);
}

// ---------------------------------------------------------------------------
// SocketTransport: two stacks, one per "process".
// ---------------------------------------------------------------------------

// Two transports in one test process model two cluster processes: each
// hosts one endpoint and learns the other's ephemeral address the same
// way debar_clusterd peers do (bind_address after registration).
struct TwoProcessRig {
  Harness h;
  SocketTransport a{AddressMap{}};
  SocketTransport b{AddressMap{}};

  TwoProcessRig() {
    EXPECT_TRUE(a.register_endpoint(0, &h.nic0).ok());
    EXPECT_TRUE(b.register_endpoint(1, &h.nic1).ok());
    const auto addr0 = a.address_of(0);
    const auto addr1 = b.address_of(1);
    EXPECT_TRUE(addr0.has_value());
    EXPECT_TRUE(addr1.has_value());
    a.bind_address(1, *addr1);
    b.bind_address(0, *addr0);
  }
};

TEST(SocketTransportTest, ReceiverFindsTheSendAlreadyCharged) {
  // A peer that acts on a frame may read the sender's modeled NIC (a
  // dedup-2 round an ingest frame triggers reads ServerClocks). The send
  // is charged before its bytes leave, so every frame the receiver holds
  // is already on the sender's NIC, and under TSan the read is ordered
  // after the charge through the socket.
  TwoProcessRig rig;
  constexpr std::uint32_t kFrames = 50;
  std::thread sender([&] {
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      EXPECT_TRUE(rig.a.send(make_frame(0, 1, i, i)).ok());
    }
  });
  std::uint64_t received = 0;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    std::optional<Frame> got =
        rig.b.receive(1, 0, Deadline::after(kTestDeadline));
    if (!got.has_value()) {
      ADD_FAILURE() << "frame " << i << " never arrived";
      break;
    }
    received += got->bytes.size();
    EXPECT_GE(rig.h.nic0.bytes_transferred(), received) << "frame " << i;
  }
  sender.join();
}

TEST(SocketTransportTest, DeliversFramesByteIdenticalAcrossProcesses) {
  TwoProcessRig rig;
  const Frame frame = make_frame(0, 1, 3, 77);
  ASSERT_TRUE(rig.a.send(Frame(frame)).ok());

  std::optional<Frame> got =
      rig.b.receive(1, 0, Deadline::after(kTestDeadline));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->from, 0u);
  EXPECT_EQ(got->to, 1u);
  EXPECT_EQ(got->seq, 3u);
  EXPECT_EQ(got->bytes, frame.bytes);  // the wire is the encoded frame

  // Send metered on the sender's stack, delivery on the receiver's.
  EXPECT_EQ(rig.a.meter().stats().bytes_sent, frame.bytes.size());
  EXPECT_EQ(rig.a.meter().stats().frames_delivered, 0u);
  EXPECT_EQ(rig.b.meter().stats().bytes_delivered, frame.bytes.size());
  EXPECT_EQ(rig.h.nic0.bytes_transferred(), frame.bytes.size());
  EXPECT_EQ(rig.h.nic1.bytes_transferred(), frame.bytes.size());
}

TEST(SocketTransportTest, ReceiveHonorsDeadlineOnSilence) {
  TwoProcessRig rig;
  const auto start = std::chrono::steady_clock::now();
  std::optional<Frame> got =
      rig.b.receive(1, 0, Deadline::after(std::chrono::milliseconds(50)));
  EXPECT_FALSE(got.has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(40));
}

TEST(SocketTransportTest, StreamsAreFifoPerSender) {
  TwoProcessRig rig;
  for (std::uint32_t seq = 0; seq < 16; ++seq) {
    ASSERT_TRUE(rig.a.send(make_frame(0, 1, seq, seq)).ok());
  }
  for (std::uint32_t seq = 0; seq < 16; ++seq) {
    std::optional<Frame> got =
        rig.b.receive(1, 0, Deadline::after(kTestDeadline));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->seq, seq);
  }
}

TEST(SocketTransportTest, ReconnectsAfterCachedConnectionDropped) {
  TwoProcessRig rig;
  ASSERT_TRUE(rig.a.send(make_frame(0, 1, 0, 1)).ok());
  ASSERT_TRUE(rig.b.receive(1, 0, Deadline::after(kTestDeadline)).has_value());

  // Sever the cached outbound connection; the next send must open a
  // fresh one transparently (reconnect-on-reset path).
  rig.a.drop_connections();
  ASSERT_TRUE(rig.a.send(make_frame(0, 1, 1, 2)).ok());
  std::optional<Frame> got =
      rig.b.receive(1, 0, Deadline::after(kTestDeadline));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 1u);
}

TEST(SocketTransportTest, ShortWriteTearsDownTheConnectionBeforeReuse) {
  // A frame that times out mid-write leaves a torn prefix on the TCP
  // stream, so the failed send must close its connection: a cached fd
  // that survived the failure would put every later frame behind the
  // torn bytes (or, as here, keep pointing at a dead address).
  Harness h;
  SocketOptions opts;
  opts.write_timeout = std::chrono::milliseconds(200);
  SocketTransport sender{AddressMap{}, opts};
  ASSERT_TRUE(sender.register_endpoint(0, &h.nic0).ok());

  // A listener that never accepts: the handshake completes in the kernel
  // backlog, nobody ever drains, so the buffers fill and a bulk frame
  // blocks mid-write until the timeout expires.
  std::uint16_t sink_port = 0;
  Result<int> sink = io::listen_tcp("127.0.0.1", 0, &sink_port);
  ASSERT_TRUE(sink.ok()) << sink.error().to_string();
  sender.bind_address(1, Address{Address::Kind::kTcp, "127.0.0.1", sink_port});

  // Sized past the worst-case kernel absorption (sender sndbuf plus a
  // fully autotuned receiver rcvbuf) so the write reliably blocks.
  FingerprintBatch bulk;
  bulk.fps.assign((48u << 20) / sizeof(Fingerprint), Sha1::hash_counter(1));
  Status sent = sender.send(Frame{0, 1, 0, encode(0, 1, 0, Message{bulk})});
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.code(), Errc::kUnavailable);

  // Endpoint 1 now comes up for real at a different address. The next
  // send must open a fresh connection there — proof the partial write
  // tore down the cached one instead of leaving it to swallow frames.
  SocketTransport receiver{AddressMap{}};
  ASSERT_TRUE(receiver.register_endpoint(1, &h.nic1).ok());
  const auto addr = receiver.address_of(1);
  ASSERT_TRUE(addr.has_value());
  sender.bind_address(1, *addr);

  ASSERT_TRUE(sender.send(make_frame(0, 1, 1, 42)).ok());
  std::optional<Frame> got =
      receiver.receive(1, 0, Deadline::after(kTestDeadline));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 1u);
  ::close(sink.value());
}

TEST(SocketTransportTest, SendToUnmappedEndpointRefuses) {
  Harness h;
  SocketTransport t{AddressMap{}};
  ASSERT_TRUE(t.register_endpoint(0, &h.nic0).ok());
  Status sent = t.send(make_frame(0, 9, 0, 0));
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.code(), Errc::kInvalidArgument);
}

// Connect a raw TCP client to the transport's listener for `id` and feed
// it `bytes`; optionally reset (SO_LINGER 0 → RST) instead of closing.
void raw_client(const SocketTransport& t, EndpointId id,
                const std::vector<Byte>& bytes, bool reset) {
  const auto addr = t.address_of(id);
  ASSERT_TRUE(addr.has_value());
  Result<int> fd =
      io::connect_tcp(addr->host, addr->port, Deadline::after(kTestDeadline));
  ASSERT_TRUE(fd.ok()) << fd.error().to_string();
  if (!bytes.empty()) {
    ASSERT_TRUE(io::write_full(fd.value(), bytes.data(), bytes.size(),
                               Deadline::after(kTestDeadline))
                    .ok());
  }
  if (reset) {
    struct linger lin{.l_onoff = 1, .l_linger = 0};
    ::setsockopt(fd.value(), SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
  }
  ::close(fd.value());
}

TEST(SocketTransportTest, SurvivesTruncatedEnvelope) {
  TwoProcessRig rig;
  // A client that dies eight bytes into the 17-byte envelope: the reader
  // must discard the connection without wedging the transport.
  const Frame frame = make_frame(0, 1, 0, 5);
  raw_client(rig.b, 1,
             std::vector<Byte>(frame.bytes.begin(), frame.bytes.begin() + 8),
             /*reset=*/false);

  ASSERT_TRUE(rig.a.send(make_frame(0, 1, 1, 6)).ok());
  std::optional<Frame> got =
      rig.b.receive(1, 0, Deadline::after(kTestDeadline));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 1u);
}

TEST(SocketTransportTest, SurvivesPeerResetMidFrame) {
  TwoProcessRig rig;
  // Full envelope promising a payload, then a hard RST mid-payload: the
  // torn frame is dropped with its connection, never delivered.
  Frame frame = make_frame(0, 1, 9, 8);
  frame.bytes.resize(frame.bytes.size() - 4);  // tear the payload
  raw_client(rig.b, 1, frame.bytes, /*reset=*/true);

  ASSERT_TRUE(rig.a.send(make_frame(0, 1, 1, 7)).ok());
  std::optional<Frame> got =
      rig.b.receive(1, 0, Deadline::after(kTestDeadline));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 1u);  // only the healthy frame arrives
  EXPECT_FALSE(rig.b.receive(1, 0, Deadline::poll()).has_value());
}

TEST(SocketTransportTest, DropsConnectionOnProtocolViolation) {
  TwoProcessRig rig;
  // Envelope with message type 0 (invalid) followed by a valid frame on
  // the SAME connection: the violation must cost the whole connection,
  // so the trailing valid frame is discarded with it.
  const Frame good = make_frame(0, 1, 2, 9);
  std::vector<Byte> wire(kEnvelopeSize, Byte{0});
  wire.insert(wire.end(), good.bytes.begin(), good.bytes.end());
  raw_client(rig.b, 1, wire, /*reset=*/false);

  EXPECT_FALSE(
      rig.b.receive(1, 0, Deadline::after(std::chrono::milliseconds(100)))
          .has_value());

  // A fresh, well-behaved connection still works.
  ASSERT_TRUE(rig.a.send(make_frame(0, 1, 3, 10)).ok());
  EXPECT_TRUE(rig.b.receive(1, 0, Deadline::after(kTestDeadline)).has_value());
}

TEST(SocketTransportTest, OversizedPayloadLengthDropsConnection) {
  Harness h;
  SocketOptions opts;
  opts.max_frame_bytes = 1024;
  AddressMap map;
  SocketTransport t{map, opts};
  ASSERT_TRUE(t.register_endpoint(1, &h.nic1).ok());

  Frame frame = make_frame(0, 1, 0, 11);
  frame.bytes[13] = Byte{0xFF};  // payload length little-endian → huge
  frame.bytes[14] = Byte{0xFF};
  frame.bytes[15] = Byte{0xFF};
  frame.bytes[16] = Byte{0x7F};
  raw_client(t, 1, frame.bytes, /*reset=*/false);
  EXPECT_FALSE(
      t.receive(1, 0, Deadline::after(std::chrono::milliseconds(100)))
          .has_value());
}

}  // namespace
}  // namespace debar::net
