#include "net/endpoint.hpp"

namespace debar::net {

Status Endpoint::transmit(EndpointId to, std::uint32_t seq,
                          std::vector<Byte> bytes) {
  // A failed send leaves the frame intact, so every attempt hands the
  // same bytes over without a copy.
  Frame frame{id_, to, seq, std::move(bytes)};
  Status last;
  for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    last = transport_->send(std::move(frame));
    if (last.ok()) return last;
  }
  return last;
}

Status Endpoint::send(EndpointId to, const Message& msg) {
  std::uint32_t seq;
  {
    std::lock_guard lock(mutex_);
    seq = next_seq_[to]++;
  }
  const std::size_t raw = wire_bytes(msg);
  transport_->meter().note_raw(type_of(msg), raw);
  std::vector<Byte> bytes;
  if (codec_.codec != CodecId::kIdentity) {
    // A lone message still benefits from the codec when its compact form
    // beats the few bytes of jumbo framing (LZ'd chunk payloads on the
    // restore path); otherwise the v1 frame is the cheaper wire image.
    bytes = encode_jumbo(id_, to, seq, codec_.codec,
                         std::span<const Message>(&msg, 1));
    if (bytes.size() >= raw) bytes.clear();
  }
  if (bytes.empty()) bytes = encode(id_, to, seq, msg);
  return transmit(to, seq, std::move(bytes));
}

Status Endpoint::send_buffered(EndpointId to, const Message& msg) {
  if (!codec_.coalesce) return send(to, msg);
  bool type_boundary = false;
  {
    std::lock_guard lock(mutex_);
    OutBuffer& buf = out_[to];
    type_boundary =
        !buf.run.empty() && type_of(buf.run.front()) != type_of(msg);
  }
  // Same-type runs only: a type change flushes the pending run first.
  Status result = type_boundary ? flush(to) : Status::Ok();
  bool over_threshold = false;
  {
    std::lock_guard lock(mutex_);
    OutBuffer& buf = out_[to];
    buf.run.push_back(msg);
    buf.raw_bytes += wire_bytes(msg);
    transport_->meter().note_raw(type_of(msg), wire_bytes(msg));
    over_threshold = buf.raw_bytes >= codec_.flush_bytes;
  }
  if (over_threshold) {
    Status s = flush(to);
    if (result.ok()) result = s;
  }
  return result;
}

Status Endpoint::flush(EndpointId to) {
  std::vector<Message> run;
  std::uint32_t seq = 0;
  {
    std::lock_guard lock(mutex_);
    const auto it = out_.find(to);
    if (it == out_.end() || it->second.run.empty()) return Status::Ok();
    run = std::move(it->second.run);
    it->second = OutBuffer{};
    seq = next_seq_[to]++;
  }
  return transmit(to, seq,
                  encode_jumbo(id_, to, seq, codec_.codec,
                               std::span<const Message>(run)));
}

Status Endpoint::flush_all() {
  std::vector<EndpointId> dests;
  {
    std::lock_guard lock(mutex_);
    dests.reserve(out_.size());
    for (const auto& [to, buf] : out_) {
      if (!buf.run.empty()) dests.push_back(to);
    }
  }
  Status first = Status::Ok();
  for (const EndpointId to : dests) {
    Status s = flush(to);
    if (first.ok() && !s.ok()) first = s;
  }
  return first;
}

std::optional<Message> Endpoint::receive_from(EndpointId from,
                                              const Deadline& deadline) {
  // Messages unpacked from an earlier jumbo frame are consumed before the
  // transport is polled again — they were delivered in frame order, so
  // per-(sender, receiver) FIFO is preserved.
  {
    std::lock_guard lock(mutex_);
    const auto it = pending_.find(from);
    if (it != pending_.end() && !it->second.empty()) {
      Message msg = std::move(it->second.front());
      it->second.pop_front();
      return msg;
    }
  }
  // The transport does the waiting; each pass through this loop consumes
  // one delivery. A discarded duplicate or corrupt frame re-enters the
  // same deadline, so junk deliveries never eat the caller's patience on
  // real transports and grant a fresh poll budget on virtual ones.
  for (;;) {
    std::optional<Frame> frame = transport_->receive(id_, from, deadline);
    if (!frame.has_value()) return std::nullopt;  // deadline expired
    {
      std::lock_guard lock(mutex_);
      if (!seen_[from].accept(frame->seq)) {
        // Duplicated delivery: the bytes crossed the wire (the transport
        // metered them) but the message was already consumed.
        continue;
      }
    }
    const ByteSpan bytes(frame->bytes.data(), frame->bytes.size());
    if (!frame->bytes.empty() &&
        frame->bytes[0] == static_cast<Byte>(MessageType::kJumbo)) {
      Result<DecodedJumbo> jumbo = decode_jumbo(bytes);
      if (!jumbo.ok() || jumbo.value().from != from ||
          jumbo.value().to != id_ || jumbo.value().messages.empty()) {
        continue;  // corrupt or misrouted frame: drop it, keep waiting
      }
      std::vector<Message>& msgs = jumbo.value().messages;
      Message head = std::move(msgs.front());
      if (msgs.size() > 1) {
        std::lock_guard lock(mutex_);
        std::deque<Message>& q = pending_[from];
        for (std::size_t i = 1; i < msgs.size(); ++i) {
          q.push_back(std::move(msgs[i]));
        }
      }
      return head;
    }
    Result<Decoded> decoded = decode(bytes);
    if (!decoded.ok() || decoded.value().from != from ||
        decoded.value().to != id_) {
      continue;  // corrupt or misrouted frame: drop it, keep waiting
    }
    return std::move(decoded.value().message);
  }
}

void Endpoint::reset_peer(EndpointId peer) {
  // Drain frames the old incarnation left sitting in the transport's
  // (peer -> us) queue BEFORE forgetting the peer. Erasing the SeqWindow
  // resets the duplicate floor to zero, so a stale buffered sub-frame
  // (seq 0, 1, ...) still queued from before the drain would otherwise be
  // accepted as the *new* incarnation's first messages — the receiver
  // would consume a dead process's coalesced run as fresh traffic.
  // Transport locks must never nest inside mutex_, so the drain runs
  // unlocked; reset_peer is a quiesced-readmission operation, not a
  // concurrent-receive fast path.
  while (transport_->receive(id_, peer, Deadline::poll()).has_value()) {
  }
  std::lock_guard lock(mutex_);
  next_seq_.erase(peer);
  seen_.erase(peer);
  out_.erase(peer);
  pending_.erase(peer);
}

}  // namespace debar::net
