#include "net/loopback_transport.hpp"

#include "common/fmt.hpp"

namespace debar::net {

Status LoopbackTransport::register_endpoint(EndpointId id,
                                            sim::NicModel* nic) {
  return meter_.bind(id, nic);
}

Status LoopbackTransport::send(Frame&& frame) {
  if (!meter_.bound(frame.from) || !meter_.bound(frame.to)) {
    return {Errc::kInvalidArgument,
            format("send {} -> {}: endpoint not registered", frame.from,
                   frame.to)};
  }
  meter_.on_send(frame);
  {
    std::lock_guard lock(mutex_);
    queues_[{frame.from, frame.to}].push_back(std::move(frame));
  }
  delivered_.notify_all();
  return Status::Ok();
}

std::optional<Frame> LoopbackTransport::receive(EndpointId to, EndpointId from,
                                                const Deadline& deadline) {
  std::unique_lock lock(mutex_);
  auto& queue = queues_[{from, to}];
  // Waiting is for threaded harnesses; a single-threaded caller's sender
  // has already run, so an empty queue stays empty and the wait just
  // expires. Zero-budget polls never touch the clock.
  if (queue.empty() && deadline.budget() > std::chrono::nanoseconds::zero()) {
    delivered_.wait_until(lock, deadline.expiry(),
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
