// SocketTransport: the cluster's frames over real TCP.
//
// Each process constructs one SocketTransport around an AddressMap and
// registers the endpoints it hosts; every other endpoint in the map is a
// remote peer. The wire format is exactly the encoded frame — the
// 17-byte envelope already carries type, from, to, seq and payload
// length, so the stream is self-framing and byte-identical to what the
// loopback transport moves in-process.
//
// Connection lifecycle:
//   * one acceptor per distinct local listening address; accepted
//     connections get a reader thread that demultiplexes frames into
//     per-(from, to) inbox queues by their envelope;
//   * outbound connections are cached per remote endpoint and created
//     lazily on first send (bounded connect timeout);
//   * ANY failed or short write closes the cached connection — the
//     stream may hold a partial frame and must never carry another one —
//     then the send reconnects once and retransmits the whole frame
//     before reporting the failure;
//   * short reads, short writes and EINTR are absorbed by net/socket_io;
//     a frame either arrives whole or is discarded with its connection.
//
// receive(to, from, deadline) blocks on the inbox until a frame of that
// stream arrives or the wall-clock deadline expires. Delivery metering
// happens on the receiving side's meter; send metering on the sender's,
// before the write, once per frame and direction (a failed send too).
//
// Caveat (documented contract): send() returning OK means the frame was
// handed to the kernel's TCP stream, not that the peer consumed it. A
// peer that dies after the handoff loses the frame silently; the
// endpoint-level retry only covers failures TCP reports. The cluster's
// degraded-round logic treats both the same way: a missing reply at the
// phase barrier.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/address.hpp"
#include "net/transport.hpp"

namespace debar::net {

struct SocketOptions {
  /// Bound on establishing one outbound connection.
  std::chrono::milliseconds connect_timeout{2000};
  /// Bound on writing one frame (envelope + payload).
  std::chrono::milliseconds write_timeout{5000};
  /// Frames larger than this are treated as a protocol violation and
  /// drop their connection (guards the reader against hostile lengths).
  std::uint32_t max_frame_bytes = 64u << 20;
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(AddressMap addresses, SocketOptions options = {});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Host `id` here: binds and listens on its mapped address (ephemeral
  /// port when unmapped or mapped "local"; the chosen port is written
  /// back to the address map, see address_of).
  [[nodiscard]] Status register_endpoint(EndpointId id,
                                         sim::NicModel* nic) override;

  [[nodiscard]] Status send(Frame&& frame) override;
  [[nodiscard]] std::optional<Frame> receive(EndpointId to, EndpointId from,
                                             const Deadline& deadline) override;
  [[nodiscard]] TransportMeter& meter() noexcept override { return meter_; }

  /// Where `id` is reachable, after ephemeral binds resolved. Lets a
  /// single-process harness register endpoints first and hand out the
  /// resulting ports.
  [[nodiscard]] std::optional<Address> address_of(EndpointId id) const;

  /// Late peer resolution: processes that bind ephemeral ports learn each
  /// other's addresses after start-up (debar_clusterd exchanges them
  /// through port files) and bind them here before the first send.
  void bind_address(EndpointId id, Address address);

  /// Sever every cached outbound connection (test hook: the next send
  /// must reconnect). Established inbound connections are untouched.
  void drop_connections();

 private:
  struct Listener {
    int fd = -1;
    std::thread thread;
  };
  struct Peer {
    std::mutex mutex;   // serializes writes of whole frames
    int fd = -1;
  };

  void accept_loop(int listen_fd);
  void reader_loop(int fd);
  /// One write attempt of the full frame to `peer` (connecting first if
  /// needed); on connection loss the caller decides whether to retry.
  [[nodiscard]] Status write_frame(Peer& peer, const Address& address,
                                   const Frame& frame);

  AddressMap addresses_;
  SocketOptions options_;
  TransportMeter meter_;

  mutable std::mutex state_mutex_;
  bool stopping_ = false;
  std::map<EndpointId, Address> listening_;  // endpoints hosted here
  std::vector<Listener> listeners_;
  std::map<EndpointId, std::unique_ptr<Peer>> peers_;
  std::vector<int> inbound_fds_;
  std::vector<std::thread> readers_;

  std::mutex inbox_mutex_;
  std::condition_variable inbox_cv_;
  std::map<std::pair<EndpointId, EndpointId>, std::deque<Frame>> inbox_;
};

}  // namespace debar::net
