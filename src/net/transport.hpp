// Transport: the seam between the cluster protocol and the network.
//
// A Transport moves opaque encoded frames between endpoints. Endpoints
// hosted by this transport instance are *registered* (register_endpoint);
// everything else is a remote peer whose placement an AddressMap resolves
// (net/address.hpp). Three implementations:
//
//   * LoopbackTransport   in-process FIFO queues, every transmission
//                         metered through both NIC models;
//   * FaultyTransport     decorator adding seeded drop / duplicate /
//                         delay faults and unreachable modes;
//   * SocketTransport     real TCP between OS processes, with connection
//                         lifecycle (connect/accept, reconnect-on-reset,
//                         short-read/short-write/EINTR handling).
//
// Delivery model (matches how the five-phase protocol uses it):
//   * send() either hands exactly one delivery to the network and returns
//     OK, or returns kUnavailable — the stand-in for "no ack before the
//     timeout", covering a dropped frame and a dead peer alike. Senders
//     retry; see Endpoint.
//   * receive(to, from, deadline) blocks until the next frame of the
//     (from -> to) stream arrives or the deadline expires, FIFO per pair.
//     Virtual-time transports never sleep: they convert the deadline's
//     budget into fault-decorator polls (see Deadline::polls), so a fault
//     schedule expressed in delivery delays keeps its semantics without
//     the tests paying real wall-clock time.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "net/message.hpp"
#include "net/meter.hpp"
#include "sim/nic_model.hpp"

namespace debar::net {

/// Virtual cost of one receive poll. Deadline budgets convert to poll
/// counts at this quantum on virtual-time transports (loopback stacks),
/// and to real waiting time on socket transports — so one RetryPolicy
/// works unchanged across both.
inline constexpr std::chrono::milliseconds kVirtualPollQuantum{50};

/// When a blocking receive must give up. A Deadline carries both
/// representations of patience: a wall-clock expiry for real transports
/// and the original budget for virtual ones (which must never read the
/// real clock, or fault schedules stop being deterministic).
class Deadline {
 public:
  /// Expires `budget` from now.
  [[nodiscard]] static Deadline after(std::chrono::nanoseconds budget) {
    return Deadline(budget);
  }

  /// Zero budget: one non-blocking delivery attempt, no waiting.
  [[nodiscard]] static Deadline poll() {
    return Deadline(std::chrono::nanoseconds::zero());
  }

  /// Budget equivalent to `polls` receive polls of a virtual transport.
  [[nodiscard]] static Deadline for_polls(int polls) {
    return Deadline(polls * std::chrono::nanoseconds(kVirtualPollQuantum));
  }

  /// The granted budget (virtual transports size their poll loops off
  /// this; it does not shrink as real time passes).
  [[nodiscard]] std::chrono::nanoseconds budget() const noexcept {
    return budget_;
  }

  /// Budget expressed in virtual polls; always at least one (a receive
  /// makes one delivery attempt even with zero budget).
  [[nodiscard]] int polls() const noexcept {
    const auto q = std::chrono::nanoseconds(kVirtualPollQuantum).count();
    const auto n = budget_.count() / q;
    return n < 1 ? 1 : static_cast<int>(n);
  }

  /// Wall-clock expiry, for real transports' waits.
  [[nodiscard]] std::chrono::steady_clock::time_point expiry() const noexcept {
    return expiry_;
  }

  [[nodiscard]] bool expired() const {
    return std::chrono::steady_clock::now() >= expiry_;
  }

 private:
  explicit Deadline(std::chrono::nanoseconds budget)
      : budget_(budget), expiry_(std::chrono::steady_clock::now() + budget) {}

  std::chrono::nanoseconds budget_;
  std::chrono::steady_clock::time_point expiry_;
};

/// One encoded message in flight: the envelope fields (duplicated out of
/// the byte buffer so transports need not parse it) plus the full wire
/// image whose size is the transmission's cost.
struct Frame {
  EndpointId from = 0;
  EndpointId to = 0;
  std::uint32_t seq = 0;
  std::vector<Byte> bytes;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Host an endpoint on this transport instance. `nic` may be null (a
  /// client endpoint with no modeled wire); the transport's meter charges
  /// transmissions against it otherwise.
  [[nodiscard]] virtual Status register_endpoint(EndpointId id,
                                                 sim::NicModel* nic) = 0;

  /// Transmit one frame. OK means exactly one delivery was handed to the
  /// network (which may still lose it; see the delivery model above), and
  /// the frame may have been moved from. On failure the frame is left
  /// intact, so a sender can retry it without keeping a copy.
  [[nodiscard]] virtual Status send(Frame&& frame) = 0;

  /// Next frame of the (from -> to) stream, or nullopt once `deadline`
  /// expires with nothing deliverable. `to` must be registered here.
  [[nodiscard]] virtual std::optional<Frame> receive(
      EndpointId to, EndpointId from, const Deadline& deadline) = 0;

  /// The single wire-accounting meter of this transport stack. Decorators
  /// forward to the base transport's meter, so a frame can never be
  /// metered twice no matter how many layers touch it.
  [[nodiscard]] virtual TransportMeter& meter() noexcept = 0;
  [[nodiscard]] const TransportMeter& meter() const noexcept {
    return const_cast<Transport*>(this)->meter();
  }

  /// Health as the transport currently believes it: FaultyTransport
  /// reports endpoints in unreachable mode. Plain transports say yes.
  [[nodiscard]] virtual bool reachable(EndpointId /*id*/) const {
    return true;
  }
};

}  // namespace debar::net
