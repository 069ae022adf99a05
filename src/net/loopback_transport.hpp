// In-process transport: per-(sender, receiver) FIFO queues, with every
// transmission metered through the sender's NIC at send() and the
// receiver's NIC at receive() — the same accounting windows the cluster
// phases measured when wire costs were hand-computed, now driven by the
// actual serialized frame sizes.
//
// receive() honors the deadline both ways: in a single-threaded harness
// the queues are either populated or will never be, so an empty queue
// returns immediately once the budget is spent; in a threaded harness
// (one thread per cluster node, as debar_clusterd runs it) a receive
// genuinely blocks on the condition variable until a sender delivers or
// the wall-clock expiry passes.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>

#include "net/transport.hpp"

namespace debar::net {

class LoopbackTransport final : public Transport {
 public:
  [[nodiscard]] Status register_endpoint(EndpointId id,
                                         sim::NicModel* nic) override;
  [[nodiscard]] Status send(Frame&& frame) override;
  [[nodiscard]] std::optional<Frame> receive(EndpointId to, EndpointId from,
                                             const Deadline& deadline) override;
  [[nodiscard]] TransportMeter& meter() noexcept override { return meter_; }

 private:
  using Key = std::pair<EndpointId, EndpointId>;  // (from, to)

  TransportMeter meter_;
  mutable std::mutex mutex_;
  std::condition_variable delivered_;
  std::map<Key, std::deque<Frame>> queues_;
};

}  // namespace debar::net
