#include "net/faulty_transport.hpp"

#include "common/fmt.hpp"
#include "common/rng.hpp"

namespace debar::net {

namespace {

/// Uniform double in [0, 1) from a keyed SplitMix64 draw: the schedule is
/// a pure function of its inputs, independent of thread interleaving.
double keyed_uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                     std::uint64_t c, std::uint64_t d, std::uint64_t salt) {
  SplitMix64 sm(seed ^ (a * 0x9E3779B97F4A7C15ULL) ^
                (b * 0xC2B2AE3D27D4EB4FULL) ^ (c * 0x165667B19E3779F9ULL) ^
                (d * 0x27D4EB2F165667C5ULL) ^ salt);
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

}  // namespace

void FaultyTransport::set_unreachable(EndpointId id, bool unreachable) {
  std::lock_guard lock(mutex_);
  if (unreachable) {
    unreachable_.insert(id);
  } else {
    unreachable_.erase(id);
  }
}

bool FaultyTransport::reachable(EndpointId id) const {
  std::lock_guard lock(mutex_);
  return !unreachable_.contains(id) &&
         accepted_ < config_.unreachable_after_sends;
}

std::uint64_t FaultyTransport::accepted_sends() const {
  std::lock_guard lock(mutex_);
  return accepted_;
}

FaultyTransport::Fate FaultyTransport::fate_of(
    const Frame& frame, std::uint32_t attempt,
    std::uint32_t* delay_polls) const {
  const double u = keyed_uniform(config_.seed, frame.from, frame.to,
                                 frame.seq, attempt, /*salt=*/0x5E4D);
  if (u < config_.drop_rate) return Fate::kDrop;
  if (u < config_.drop_rate + config_.duplicate_rate) return Fate::kDuplicate;
  if (u < config_.drop_rate + config_.duplicate_rate + config_.delay_rate) {
    const double v = keyed_uniform(config_.seed, frame.from, frame.to,
                                   frame.seq, attempt, /*salt=*/0xDE1A);
    const std::uint32_t span = config_.max_delay_polls == 0
                                   ? 1
                                   : config_.max_delay_polls;
    *delay_polls = 1 + static_cast<std::uint32_t>(
                           v * static_cast<double>(span));
    return Fate::kDelay;
  }
  return Fate::kPass;
}

Status FaultyTransport::send(Frame&& frame) {
  std::uint32_t attempt;
  {
    std::lock_guard lock(mutex_);
    if (unreachable_.contains(frame.from) ||
        unreachable_.contains(frame.to) ||
        accepted_ >= config_.unreachable_after_sends) {
      return {Errc::kUnavailable,
              format("send {} -> {}: peer unreachable", frame.from,
                     frame.to)};
    }
    attempt =
        attempts_[{frame.from, frame.to, frame.seq}]++;
  }
  std::uint32_t delay_polls = 0;
  const Fate fate = fate_of(frame, attempt, &delay_polls);
  switch (fate) {
    case Fate::kDrop:
      // The transmission left the sender's wire and vanished; the caller
      // sees the timeout and retries.
      meter().on_send(frame);
      return {Errc::kUnavailable,
              format("send {} -> {}: frame dropped", frame.from, frame.to)};
    case Fate::kDuplicate: {
      Frame copy = frame;
      Status st = inner_->send(std::move(frame));
      if (st.ok()) {
        std::lock_guard lock(mutex_);
        ++accepted_;
        held_[{copy.from, copy.to}].push_back(
            Held{std::move(copy), /*polls_left=*/1, /*meter_on_release=*/true});
      }
      return st;
    }
    case Fate::kDelay: {
      // The frame is in flight but slow: the sender's wire is burnt now,
      // delivery completes a few receive polls later.
      meter().on_send(frame);
      std::lock_guard lock(mutex_);
      ++accepted_;
      held_[{frame.from, frame.to}].push_back(
          Held{std::move(frame), delay_polls, /*meter_on_release=*/true});
      return Status::Ok();
    }
    case Fate::kPass:
      break;
  }
  Status st = inner_->send(std::move(frame));
  if (st.ok()) {
    std::lock_guard lock(mutex_);
    ++accepted_;
  }
  return st;
}

std::optional<Frame> FaultyTransport::poll_once(EndpointId to,
                                                EndpointId from) {
  // Tick this stream's withheld frames, then prefer a punctual delivery;
  // ripe held frames surface on polls where the inner queue is empty.
  std::optional<Frame> ripe;
  {
    std::lock_guard lock(mutex_);
    const auto held = held_.find({from, to});
    if (held != held_.end()) {
      for (Held& h : held->second) {
        if (h.polls_left > 0) --h.polls_left;
      }
    }
  }
  if (std::optional<Frame> frame =
          inner_->receive(to, from, Deadline::poll())) {
    return frame;
  }
  {
    std::lock_guard lock(mutex_);
    const auto held = held_.find({from, to});
    if (held == held_.end()) return std::nullopt;
    auto& queue = held->second;
    bool should_meter = false;
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (it->polls_left == 0) {
        should_meter = it->meter_on_release;
        ripe = std::move(it->frame);
        queue.erase(it);
        break;
      }
    }
    if (!should_meter) return ripe;
  }
  // Meter outside our lock: the meter takes its own.
  if (ripe.has_value()) meter().on_deliver(to, ripe->bytes.size());
  return ripe;
}

std::optional<Frame> FaultyTransport::receive(EndpointId to, EndpointId from,
                                              const Deadline& deadline) {
  // Virtual time: the deadline's budget buys poll iterations, never real
  // waiting — each inner receive is a zero-budget attempt.
  const int polls = deadline.polls();
  for (int i = 0; i < polls; ++i) {
    if (std::optional<Frame> frame = poll_once(to, from)) return frame;
  }
  return std::nullopt;
}

}  // namespace debar::net
