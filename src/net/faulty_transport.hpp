// Seeded network fault injection, the wire-side sibling of
// storage::FaultyBlockDevice.
//
// Decorates any Transport and decides each transmission's fate from a
// pure function of (seed, from, to, seq, attempt) — no shared RNG stream,
// so the schedule is deterministic under any thread interleaving of the
// cluster's parallel phases, and a failing case reproduces from the seed
// alone:
//
//   * drop       the frame is metered on the sender's NIC but never
//                delivered; send() reports kUnavailable (the protocol's
//                "no ack before timeout"), and the endpoint's bounded
//                retry re-transmits with the next attempt number;
//   * duplicate  one extra delivery of the same frame, released on a
//                later receive poll; receivers discard it by seq;
//   * delay      the frame is withheld for 1..max_delay_polls receive
//                polls on its (from, to) stream before delivery;
//   * unreachable mode — sends to or from a marked endpoint (or, after
//                `unreachable_after_sends` accepted transmissions, every
//                send) fail without consuming wire, modeling a dead
//                server or a partitioned network.
//
// Time here is virtual: receive() converts its deadline's budget into
// poll iterations (Deadline::polls) and drives the inner transport with
// zero-budget polls, so a fault schedule expressed in delivery delays
// runs at memory speed regardless of the wall clock. Metering goes
// through the stack's single TransportMeter (Transport::meter), reached
// via the inner transport — this decorator owns no ledger of its own, so
// a frame can never be charged twice.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_set>

#include "net/transport.hpp"

namespace debar::net {

/// Sentinel: never trip the global unreachable mode.
inline constexpr std::uint64_t kNoSendLimit = ~std::uint64_t{0};

struct NetFaultConfig {
  std::uint64_t seed = 0;
  /// Probability a transmission is lost in flight.
  double drop_rate = 0.0;
  /// Probability a delivered transmission arrives twice.
  double duplicate_rate = 0.0;
  /// Probability a delivered transmission is withheld for a few polls.
  double delay_rate = 0.0;
  /// Maximum delivery delay, in receive polls of the frame's stream.
  /// Keep it below the receive deadline's poll budget
  /// (RetryPolicy::receive_timeout / kVirtualPollQuantum) or delays read
  /// as dead peers.
  std::uint32_t max_delay_polls = 2;
  /// Accepted-transmission count after which the whole network goes
  /// unreachable (deterministic analogue of FaultConfig::crash_after_ops;
  /// phase-targeted tests pick a count on a phase boundary).
  std::uint64_t unreachable_after_sends = kNoSendLimit;
};

class FaultyTransport final : public Transport {
 public:
  FaultyTransport(std::unique_ptr<Transport> inner, NetFaultConfig config)
      : inner_(std::move(inner)), config_(config) {}

  /// Mark one endpoint dead (or revive it). Sends touching it fail.
  void set_unreachable(EndpointId id, bool unreachable);

  [[nodiscard]] Status register_endpoint(EndpointId id,
                                         sim::NicModel* nic) override {
    return inner_->register_endpoint(id, nic);
  }
  [[nodiscard]] Status send(Frame&& frame) override;
  [[nodiscard]] std::optional<Frame> receive(EndpointId to, EndpointId from,
                                             const Deadline& deadline) override;
  [[nodiscard]] TransportMeter& meter() noexcept override {
    return inner_->meter();
  }
  [[nodiscard]] bool reachable(EndpointId id) const override;

  /// Accepted (non-dropped, non-refused) transmissions so far; the
  /// counter `unreachable_after_sends` is compared against.
  [[nodiscard]] std::uint64_t accepted_sends() const;

  [[nodiscard]] Transport& inner() noexcept { return *inner_; }

 private:
  enum class Fate { kPass, kDrop, kDuplicate, kDelay };

  struct Held {
    Frame frame;
    std::uint32_t polls_left = 0;
    bool meter_on_release = false;  // duplicates re-meter the receiver
  };

  [[nodiscard]] Fate fate_of(const Frame& frame, std::uint32_t attempt,
                             std::uint32_t* delay_polls) const;
  /// One virtual receive poll of the (from -> to) stream.
  [[nodiscard]] std::optional<Frame> poll_once(EndpointId to, EndpointId from);

  std::unique_ptr<Transport> inner_;
  NetFaultConfig config_;

  mutable std::mutex mutex_;
  std::unordered_set<EndpointId> unreachable_;
  std::uint64_t accepted_ = 0;
  /// Per-(from, to, seq): how many transmissions of this frame were
  /// attempted, so retries draw fresh fates deterministically.
  std::map<std::tuple<EndpointId, EndpointId, std::uint32_t>, std::uint32_t>
      attempts_;
  /// Withheld deliveries per (from, to) stream.
  std::map<std::pair<EndpointId, EndpointId>, std::deque<Held>> held_;
};

}  // namespace debar::net
