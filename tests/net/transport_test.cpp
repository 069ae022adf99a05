// Loopback transport metering and the fault decorator's seeded behavior:
// every transmission charges both NICs at its serialized size, FIFO order
// holds per stream, and fault fates reproduce from the seed alone.
// Receives take a Deadline; virtual transports convert its budget into
// polls, so these tests never wait on the wall clock.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "common/sha1.hpp"
#include "net/endpoint.hpp"
#include "net/faulty_transport.hpp"
#include "net/loopback_transport.hpp"

namespace debar::net {
namespace {

struct Harness {
  sim::SimClock clock0, clock1;
  sim::NicModel nic0{{.bytes_per_sec = 1.0e6}, &clock0};
  sim::NicModel nic1{{.bytes_per_sec = 1.0e6}, &clock1};

  void register_on(Transport& t) {
    ASSERT_TRUE(t.register_endpoint(0, &nic0).ok());
    ASSERT_TRUE(t.register_endpoint(1, &nic1).ok());
  }
};

Frame make_frame(EndpointId from, EndpointId to, std::uint32_t seq,
                 std::uint64_t tag) {
  FingerprintBatch batch;
  batch.fps.push_back(Sha1::hash_counter(tag));
  return Frame{from, to, seq, encode(from, to, seq, Message{batch})};
}

TEST(DeadlineTest, BudgetConvertsToPolls) {
  EXPECT_EQ(Deadline::poll().polls(), 1);  // zero budget still tries once
  EXPECT_EQ(Deadline::for_polls(4).polls(), 4);
  EXPECT_EQ(Deadline::for_polls(4).budget(), 4 * kVirtualPollQuantum);
  EXPECT_EQ(Deadline::after(kVirtualPollQuantum / 2).polls(), 1);
  EXPECT_FALSE(Deadline::after(std::chrono::seconds(10)).expired());
}

TEST(LoopbackTransportTest, MetersSenderAtSendAndReceiverAtReceive) {
  LoopbackTransport transport;
  Harness h;
  h.register_on(transport);

  const Frame frame = make_frame(0, 1, 0, 42);
  const std::uint64_t size = frame.bytes.size();
  ASSERT_TRUE(transport.send(Frame(frame)).ok());
  EXPECT_EQ(h.nic0.bytes_transferred(), size);
  EXPECT_EQ(h.nic1.bytes_transferred(), 0u);  // not delivered yet

  std::optional<Frame> got = transport.receive(1, 0, Deadline::poll());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->bytes, frame.bytes);
  EXPECT_EQ(h.nic1.bytes_transferred(), size);

  const TransportStats stats = transport.meter().stats();
  EXPECT_EQ(stats.frames_sent, 1u);
  EXPECT_EQ(stats.bytes_sent, size);
  EXPECT_EQ(stats.frames_delivered, 1u);
  EXPECT_EQ(stats.bytes_delivered, size);
  EXPECT_EQ(stats.frames_by_type[static_cast<std::size_t>(
                MessageType::kFingerprintBatch)],
            1u);
}

TEST(LoopbackTransportTest, StreamsAreFifoAndIndependent) {
  LoopbackTransport transport;
  Harness h;
  h.register_on(transport);

  ASSERT_TRUE(transport.send(make_frame(0, 1, 0, 1)).ok());
  ASSERT_TRUE(transport.send(make_frame(0, 1, 1, 2)).ok());
  ASSERT_TRUE(transport.send(make_frame(1, 0, 0, 3)).ok());

  EXPECT_EQ(transport.receive(1, 0, Deadline::poll())->seq, 0u);
  EXPECT_EQ(transport.receive(1, 0, Deadline::poll())->seq, 1u);
  EXPECT_FALSE(transport.receive(1, 0, Deadline::poll()).has_value());
  EXPECT_EQ(transport.receive(0, 1, Deadline::poll())->seq, 0u);
}

TEST(LoopbackTransportTest, BlockingReceiveWakesOnConcurrentSend) {
  // The deadline's wall-clock side: a threaded harness (debar_clusterd's
  // loopback vessel) genuinely blocks until a sender delivers.
  LoopbackTransport transport;
  Harness h;
  h.register_on(transport);

  std::thread sender([&] { ASSERT_TRUE(transport.send(make_frame(0, 1, 0, 9)).ok()); });
  std::optional<Frame> got =
      transport.receive(1, 0, Deadline::after(std::chrono::seconds(10)));
  sender.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 0u);
}

TEST(LoopbackTransportTest, RejectsUnknownAndDuplicateEndpoints) {
  LoopbackTransport transport;
  Harness h;
  h.register_on(transport);
  EXPECT_FALSE(transport.register_endpoint(0, &h.nic0).ok());
  EXPECT_FALSE(transport.send(make_frame(0, 9, 0, 1)).ok());
  EXPECT_FALSE(transport.send(make_frame(9, 1, 0, 1)).ok());
}

TEST(EndpointTest, DiscardsDuplicateDeliveriesBySequence) {
  LoopbackTransport transport;
  Harness h;
  h.register_on(transport);
  Endpoint receiver(&transport, 1);

  const Frame frame = make_frame(0, 1, 7, 5);
  ASSERT_TRUE(transport.send(Frame(frame)).ok());
  ASSERT_TRUE(transport.send(Frame(frame)).ok());  // duplicated delivery

  EXPECT_TRUE(receiver.receive_from(0, Deadline::poll()).has_value());
  // The second copy crossed the wire but must not surface again.
  EXPECT_FALSE(receiver.receive_from(0, Deadline::poll()).has_value());
}

TEST(EndpointTest, TypedExpectRejectsWrongMessageType) {
  LoopbackTransport transport;
  Harness h;
  h.register_on(transport);
  Endpoint sender(&transport, 0);
  Endpoint receiver(&transport, 1);

  ASSERT_TRUE(sender.send(1, Message{FingerprintBatch{}}).ok());
  Result<IndexEntryBatch> wrong =
      receiver.expect<IndexEntryBatch>(0, Deadline::poll());
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.error().code, Errc::kCorrupt);

  Result<FingerprintBatch> nothing =
      receiver.expect<FingerprintBatch>(0, Deadline::poll());
  ASSERT_FALSE(nothing.ok());
  EXPECT_EQ(nothing.error().code, Errc::kUnavailable);
}

TEST(FaultyTransportTest, DropsAreMeteredAndRetriesRedeliver) {
  // Fates are keyed by attempt: with a moderate drop rate some first
  // attempts fail, but the endpoint's retry budget gets the message
  // through, and every attempt burns sender wire.
  NetFaultConfig cfg{.seed = 0x5EED, .drop_rate = 0.5};
  auto faulty = std::make_unique<FaultyTransport>(
      std::make_unique<LoopbackTransport>(), cfg);
  FaultyTransport& transport = *faulty;
  Harness h;
  h.register_on(transport);
  Endpoint sender(&transport, 0, {.max_attempts = 16});
  Endpoint receiver(&transport, 1);

  std::uint64_t delivered = 0;
  for (std::uint64_t i = 0; i < 50; ++i) {
    FingerprintBatch batch;
    batch.fps.push_back(Sha1::hash_counter(i));
    ASSERT_TRUE(sender.send(1, Message{batch}).ok());
    if (receiver.receive_from(0).has_value()) ++delivered;
  }
  EXPECT_EQ(delivered, 50u);
  // More wire than 50 clean transmissions: dropped attempts were metered.
  const std::uint64_t clean =
      50 * wire_bytes(Message{FingerprintBatch{
               .fps = {Sha1::hash_counter(0)}}});
  EXPECT_GT(h.nic0.bytes_transferred(), clean);
}

TEST(FaultyTransportTest, FailedSendsLeaveTheFrameIntact) {
  // A sender retries the frame a failed send handed over, so no failure
  // may take its bytes: not a refusal, not an unreachable peer, not a
  // dropped transmission.
  LoopbackTransport loopback;
  Harness plain;
  plain.register_on(loopback);
  const Frame want = make_frame(0, 9, 4, 11);
  Frame frame = want;
  EXPECT_FALSE(loopback.send(std::move(frame)).ok());
  EXPECT_EQ(frame.bytes, want.bytes);

  FaultyTransport faulty(std::make_unique<LoopbackTransport>(),
                         NetFaultConfig{.seed = 3, .drop_rate = 1.0});
  Harness h;
  h.register_on(faulty);
  const Frame sent = make_frame(0, 1, 4, 12);
  frame = sent;
  EXPECT_FALSE(faulty.send(std::move(frame)).ok());  // dropped
  EXPECT_EQ(frame.bytes, sent.bytes);
  faulty.set_unreachable(1, true);
  EXPECT_FALSE(faulty.send(std::move(frame)).ok());
  EXPECT_EQ(frame.bytes, sent.bytes);
  EXPECT_EQ(frame.seq, 4u);
}

TEST(FaultyTransportTest, MeterChargesSerializedSizeOncePerTransmission) {
  // The single-meter regression (the decorator forwards to the base
  // transport's meter instead of keeping hooks of its own): under drop,
  // duplicate, AND delay faults, every counter must stay an exact
  // multiple of the one serialized frame size in play, the per-type
  // ledger must agree with the totals, and the NICs must agree with the
  // meter. A double-metering decorator fails every one of these.
  NetFaultConfig cfg{.seed = 0xACC7,
                     .drop_rate = 0.25,
                     .duplicate_rate = 0.25,
                     .delay_rate = 0.25,
                     .max_delay_polls = 2};
  FaultyTransport transport(std::make_unique<LoopbackTransport>(), cfg);
  Harness h;
  h.register_on(transport);
  Endpoint sender(&transport, 0, {.max_attempts = 16});
  Endpoint receiver(&transport, 1);

  const std::uint64_t size = wire_bytes(Message{FingerprintBatch{
      .fps = {Sha1::hash_counter(0)}}});
  constexpr std::uint64_t kMessages = 64;
  std::uint64_t received = 0;
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    FingerprintBatch batch;
    batch.fps.push_back(Sha1::hash_counter(i));
    ASSERT_TRUE(sender.send(1, Message{batch}).ok());
    if (receiver.receive_from(0).has_value()) ++received;
  }
  EXPECT_EQ(received, kMessages);

  const TransportStats stats = transport.meter().stats();
  const auto type = static_cast<std::size_t>(MessageType::kFingerprintBatch);
  // Sent side: one charge of exactly `size` per transmission — clean,
  // dropped, duplicated or delayed alike.
  EXPECT_EQ(stats.bytes_sent, stats.frames_sent * size);
  EXPECT_EQ(stats.frames_by_type[type], stats.frames_sent);
  EXPECT_EQ(stats.bytes_by_type[type], stats.bytes_sent);
  EXPECT_GE(stats.frames_sent, kMessages);  // retries and duplicates add wire
  // Delivered side: every arrival charged once. A duplicated frame is
  // charged once at send but meters both copies at delivery, so the
  // delivered count may legitimately exceed the sent count.
  EXPECT_EQ(stats.bytes_delivered, stats.frames_delivered * size);
  EXPECT_GE(stats.frames_delivered, kMessages);
  // The NIC models and the meter are the same account.
  EXPECT_EQ(h.nic0.bytes_transferred(), stats.bytes_sent);
  EXPECT_EQ(h.nic1.bytes_transferred(), stats.bytes_delivered);
}

TEST(FaultyTransportTest, FatesAreDeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    NetFaultConfig cfg{.seed = seed,
                       .drop_rate = 0.3,
                       .duplicate_rate = 0.2,
                       .delay_rate = 0.2};
    FaultyTransport transport(std::make_unique<LoopbackTransport>(), cfg);
    Harness h;
    h.register_on(transport);
    std::vector<bool> outcomes;
    for (std::uint32_t seq = 0; seq < 64; ++seq) {
      outcomes.push_back(transport.send(make_frame(0, 1, seq, seq)).ok());
    }
    return outcomes;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));  // different seed, different schedule
}

TEST(FaultyTransportTest, DelayedFramesArriveWithinMaxPolls) {
  NetFaultConfig cfg{.seed = 9, .delay_rate = 1.0, .max_delay_polls = 2};
  FaultyTransport transport(std::make_unique<LoopbackTransport>(), cfg);
  Harness h;
  h.register_on(transport);
  Endpoint sender(&transport, 0);
  Endpoint receiver(&transport, 1);

  ASSERT_TRUE(sender.send(1, Message{FingerprintBatch{}}).ok());
  // The raw transport withholds the frame for its drawn delay, but never
  // longer than max_delay_polls single-poll receives.
  int polls = 0;
  std::optional<Frame> frame;
  while (!frame.has_value() && polls < 5) {
    frame = transport.receive(1, 0, Deadline::poll());
    ++polls;
  }
  ASSERT_TRUE(frame.has_value());
  EXPECT_LE(polls, static_cast<int>(cfg.max_delay_polls));

  // The endpoint's receive budget absorbs the delay transparently (the
  // default receive_timeout converts to four virtual polls).
  ASSERT_TRUE(sender.send(1, Message{FingerprintBatch{}}).ok());
  EXPECT_TRUE(receiver.receive_from(0).has_value());
}

TEST(FaultyTransportTest, DuplicatedFramesAreDiscardedByReceivers) {
  NetFaultConfig cfg{.seed = 3, .duplicate_rate = 1.0};
  FaultyTransport transport(std::make_unique<LoopbackTransport>(), cfg);
  Harness h;
  h.register_on(transport);
  Endpoint sender(&transport, 0);
  Endpoint receiver(&transport, 1);

  ASSERT_TRUE(sender.send(1, Message{FingerprintBatch{}}).ok());
  EXPECT_TRUE(receiver.receive_from(0).has_value());
  EXPECT_FALSE(receiver.receive_from(0).has_value());
  // Both copies crossed the receiver's wire.
  const std::uint64_t one = wire_bytes(Message{FingerprintBatch{}});
  EXPECT_EQ(h.nic1.bytes_transferred(), 2 * one);
}

TEST(FaultyTransportTest, UnreachableEndpointRefusesWithoutWire) {
  FaultyTransport transport(std::make_unique<LoopbackTransport>(), {});
  Harness h;
  h.register_on(transport);
  Endpoint sender(&transport, 0);

  transport.set_unreachable(1, true);
  EXPECT_FALSE(transport.reachable(1));
  Status sent = sender.send(1, Message{FingerprintBatch{}});
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.code(), Errc::kUnavailable);
  EXPECT_EQ(h.nic0.bytes_transferred(), 0u);  // refused, not dropped

  transport.set_unreachable(1, false);
  EXPECT_TRUE(transport.reachable(1));
  EXPECT_TRUE(sender.send(1, Message{FingerprintBatch{}}).ok());
}

TEST(FaultyTransportTest, GlobalSendLimitTripsUnreachableMode) {
  NetFaultConfig cfg{.unreachable_after_sends = 2};
  FaultyTransport transport(std::make_unique<LoopbackTransport>(), cfg);
  Harness h;
  h.register_on(transport);

  ASSERT_TRUE(transport.send(make_frame(0, 1, 0, 0)).ok());
  ASSERT_TRUE(transport.send(make_frame(1, 0, 0, 1)).ok());
  EXPECT_EQ(transport.accepted_sends(), 2u);
  EXPECT_FALSE(transport.send(make_frame(0, 1, 1, 2)).ok());
  EXPECT_FALSE(transport.reachable(0));
}

}  // namespace
}  // namespace debar::net
