#include "net/socket_transport.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "common/fmt.hpp"
#include "net/socket_io.hpp"

namespace debar::net {

namespace {

std::uint32_t read_u32_le(const Byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

SocketTransport::SocketTransport(AddressMap addresses, SocketOptions options)
    : addresses_(std::move(addresses)), options_(options) {}

SocketTransport::~SocketTransport() {
  std::vector<Listener> listeners;
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    stopping_ = true;
    // Unblock the acceptors and readers; join outside the lock so an
    // exiting thread can still reach the state it needs.
    for (Listener& l : listeners_) ::shutdown(l.fd, SHUT_RDWR);
    for (int fd : inbound_fds_) ::shutdown(fd, SHUT_RDWR);
    listeners.swap(listeners_);
    readers.swap(readers_);
  }
  inbox_cv_.notify_all();
  for (Listener& l : listeners) {
    if (l.thread.joinable()) l.thread.join();
    ::close(l.fd);
  }
  for (std::thread& t : readers) {
    if (t.joinable()) t.join();
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  for (int fd : inbound_fds_) ::close(fd);
  for (auto& [id, peer] : peers_) {
    if (peer->fd >= 0) ::close(peer->fd);
  }
}

Status SocketTransport::register_endpoint(EndpointId id, sim::NicModel* nic) {
  if (Status bound = meter_.bind(id, nic); !bound.ok()) return bound;

  Address address = addresses_.lookup(id).value_or(Address::in_process());
  std::string bind_host =
      address.kind == Address::Kind::kTcp ? address.host : "127.0.0.1";
  std::uint16_t bind_port =
      address.kind == Address::Kind::kTcp ? address.port : 0;

  {
    // Endpoints sharing one explicit host:port share its listener — the
    // envelope demultiplexes their streams.
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (bind_port != 0) {
      const Address here = Address::tcp(bind_host, bind_port);
      for (const auto& [other, addr] : listening_) {
        (void)other;
        if (addr == here) return Status::Ok();
      }
    }
  }

  std::uint16_t bound_port = 0;
  Result<int> fd = io::listen_tcp(bind_host, bind_port, &bound_port);
  if (!fd.ok()) {
    return {fd.error().code,
            format("endpoint {}: {}", id, fd.error().message)};
  }

  const Address bound = Address::tcp(
      bind_host == "" || bind_host == "0.0.0.0" ? "127.0.0.1" : bind_host,
      bound_port);
  std::lock_guard<std::mutex> lock(state_mutex_);
  addresses_.bind(id, bound);
  listening_.emplace(id, bound);
  listeners_.push_back(
      {fd.value(), std::thread([this, lfd = fd.value()] { accept_loop(lfd); })});
  return Status::Ok();
}

std::optional<Address> SocketTransport::address_of(EndpointId id) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return addresses_.lookup(id);
}

void SocketTransport::bind_address(EndpointId id, Address address) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  addresses_.bind(id, std::move(address));
}

void SocketTransport::drop_connections() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  for (auto& [id, peer] : peers_) {
    std::lock_guard<std::mutex> peer_lock(peer->mutex);
    if (peer->fd >= 0) {
      ::close(peer->fd);
      peer->fd = -1;
    }
  }
}

void SocketTransport::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or fatal): stop accepting
    }
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    inbound_fds_.push_back(fd);
    readers_.emplace_back([this, fd] { reader_loop(fd); });
  }
}

void SocketTransport::reader_loop(int fd) {
  // A healthy peer writes whole frames; once an envelope starts, the rest
  // must follow promptly. The generous bound exists so a wedged or
  // truncating peer costs this reader thread bounded time, not forever.
  constexpr std::chrono::minutes kMidFrameBudget{1};
  for (;;) {
    Byte envelope[kEnvelopeSize];
    if (!io::read_full(fd, envelope, kEnvelopeSize,
                       Deadline::after(std::chrono::hours(24 * 365)))
             .ok()) {
      return;  // peer closed / reset between frames: a clean stream end
    }
    const std::uint8_t type = envelope[0];
    Frame frame;
    frame.from = read_u32_le(envelope + 1);
    frame.to = read_u32_le(envelope + 5);
    frame.seq = read_u32_le(envelope + 9);
    const std::uint32_t payload = read_u32_le(envelope + 13);
    if (type == 0 || type >= kMessageTypeCount ||
        payload > options_.max_frame_bytes) {
      return;  // protocol violation: drop the connection, not the process
    }
    frame.bytes.resize(kEnvelopeSize + payload);
    std::memcpy(frame.bytes.data(), envelope, kEnvelopeSize);
    if (payload > 0 &&
        !io::read_full(fd, frame.bytes.data() + kEnvelopeSize, payload,
                       Deadline::after(kMidFrameBudget))
             .ok()) {
      return;  // torn mid-frame (truncation / reset): discard with the conn
    }
    if (!meter_.bound(frame.to)) {
      continue;  // misrouted: this process does not host the destination
    }
    {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      inbox_[{frame.from, frame.to}].push_back(std::move(frame));
    }
    inbox_cv_.notify_all();
  }
}

Status SocketTransport::write_frame(Peer& peer, const Address& address,
                                    const Frame& frame) {
  if (peer.fd < 0) {
    Result<int> fd = io::connect_tcp(
        address.host, address.port,
        Deadline::after(std::chrono::nanoseconds(options_.connect_timeout)));
    if (!fd.ok()) return {fd.error().code, fd.error().message};
    peer.fd = fd.value();
  }
  Status wrote = io::write_full(
      peer.fd, frame.bytes.data(), frame.bytes.size(),
      Deadline::after(std::chrono::nanoseconds(options_.write_timeout)));
  if (!wrote.ok()) {
    // The stream is torn (the peer may have consumed a partial frame);
    // the only safe continuation is a fresh connection.
    ::close(peer.fd);
    peer.fd = -1;
  }
  return wrote;
}

Status SocketTransport::send(Frame&& frame) {
  if (frame.bytes.size() < kEnvelopeSize) {
    return {Errc::kInvalidArgument, "frame shorter than its envelope"};
  }
  Address address;
  Peer* peer = nullptr;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (stopping_) return {Errc::kUnavailable, "transport stopping"};
    const std::optional<Address> found = addresses_.lookup(frame.to);
    if (!found.has_value() || found->kind != Address::Kind::kTcp) {
      return {Errc::kInvalidArgument,
              format("endpoint {} has no socket address", frame.to)};
    }
    address = *found;
    std::unique_ptr<Peer>& slot = peers_[frame.to];
    if (slot == nullptr) slot = std::make_unique<Peer>();
    peer = slot.get();
  }

  // Charged before any byte leaves, as loopback charges before enqueuing:
  // a peer acting on the frame must find the sender's NIC charged.
  meter_.on_send(frame);
  std::lock_guard<std::mutex> peer_lock(peer->mutex);
  Status wrote = write_frame(*peer, address, frame);
  if (!wrote.ok()) {
    // write_frame tore down the cached connection: after ANY failed or
    // short write the stream may hold a partial frame, so it must never
    // carry another one (the receiver discards torn frames with their
    // connection). Retry exactly once on a fresh connection, whatever
    // the failure class — a connection the peer reset (restart,
    // idle-kill) or a timed-out partial write should not surface as an
    // unreachable endpoint when a clean retransmission would land.
    wrote = write_frame(*peer, address, frame);
  }
  return wrote;
}

std::optional<Frame> SocketTransport::receive(EndpointId to, EndpointId from,
                                              const Deadline& deadline) {
  if (!meter_.bound(to)) return std::nullopt;
  std::unique_lock<std::mutex> lock(inbox_mutex_);
  auto& queue = inbox_[{from, to}];
  if (queue.empty() && deadline.budget() > std::chrono::nanoseconds::zero()) {
    inbox_cv_.wait_until(lock, deadline.expiry(),
                         [&] { return !queue.empty(); });
  }
  if (queue.empty()) return std::nullopt;
  Frame frame = std::move(queue.front());
  queue.pop_front();
  lock.unlock();
  meter_.on_deliver(to, frame.bytes.size());
  return frame;
}

}  // namespace debar::net
