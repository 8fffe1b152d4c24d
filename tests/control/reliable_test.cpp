// ReliableLink receive-side dedup under adversarial sequence gaps: the
// per-peer `ahead` set must stay bounded by dedup_window no matter what
// order (or with what holes) sequence numbers arrive, and evicting a gap
// must never re-admit an already-seen sequence — an evicted seq falls
// below the floor and stays suppressed as a duplicate forever.
#include "control/reliable.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "simkit/event_loop.hpp"
#include "transport/transport.hpp"

namespace discs {
namespace {

/// Transport test double: records what the link sends, delivers nothing.
struct NullTransport final : Transport {
  std::vector<Envelope> sent;
  void attach(AsNumber, Handler) override {}
  void detach(AsNumber) override {}
  void send(Envelope envelope) override { sent.push_back(std::move(envelope)); }
  std::uint64_t clock_us() const override { return 0; }
};

/// A dedup-neutral message: PeeringRequest deliberately resets the
/// receive state (restarted peers must get through) and DeliveryAck is
/// link-internal, so the dedup tests ride on RekeyComplete.
Envelope from_peer(AsNumber peer, std::uint64_t seq, bool ack = false) {
  Envelope envelope{peer, 1, RekeyComplete{seq}};
  envelope.seq = seq;
  envelope.ack_requested = ack;
  return envelope;
}

class ReliableRxTest : public ::testing::Test {
 protected:
  ReliableRxTest() : link_(loop_, net_, /*self=*/1, small_window()) {}

  static ReliabilityConfig small_window() {
    ReliabilityConfig config;
    config.dedup_window = 8;  // small enough to force evictions quickly
    return config;
  }

  EventLoop loop_;
  NullTransport net_;
  ReliableLink link_;
};

TEST_F(ReliableRxTest, ContiguousSequencesCompressIntoTheFloor) {
  for (std::uint64_t seq = 1; seq <= 100; ++seq) {
    EXPECT_EQ(link_.on_receive(from_peer(2, seq)), ReceiveAction::kFresh);
  }
  EXPECT_EQ(link_.rx_floor(2), 100u);
  EXPECT_EQ(link_.rx_ahead_size(2), 0u);  // nothing remembered out-of-order
}

TEST_F(ReliableRxTest, InOrderDeliveryNeverTouchesTheAheadSet) {
  // Two peers interleaved, acks requested, as a healthy path delivers
  // them: the floor tracks every seq and nothing is remembered ahead.
  for (std::uint64_t seq = 1; seq <= 64; ++seq) {
    for (const AsNumber peer : {AsNumber{2}, AsNumber{3}}) {
      EXPECT_EQ(link_.on_receive(from_peer(peer, seq, /*ack=*/true)),
                ReceiveAction::kFresh);
      EXPECT_EQ(link_.rx_ahead_size(peer), 0u) << "seq " << seq;
      EXPECT_EQ(link_.rx_floor(peer), seq);
    }
  }
  // A replay of an in-order seq is still a duplicate.
  EXPECT_EQ(link_.on_receive(from_peer(2, 64)), ReceiveAction::kDuplicate);
  EXPECT_EQ(link_.stats().acks_sent, 128u);
}

TEST_F(ReliableRxTest, AheadSetStaysBoundedUnderAdversarialGaps) {
  // All-even sequences: every arrival leaves a hole, so nothing ever
  // compresses into the floor — the worst case for `ahead` growth.
  for (std::uint64_t seq = 2; seq <= 2000; seq += 2) {
    EXPECT_EQ(link_.on_receive(from_peer(2, seq)), ReceiveAction::kFresh);
    EXPECT_LE(link_.rx_ahead_size(2), small_window().dedup_window)
        << "at seq " << seq;
  }
  EXPECT_EQ(link_.rx_ahead_size(2), small_window().dedup_window);
  // Eviction raised the floor past the abandoned gaps.
  EXPECT_GE(link_.rx_floor(2), 2000u - 2 * small_window().dedup_window);
}

TEST_F(ReliableRxTest, RandomArrivalOrderNeverExceedsTheWindow) {
  Xoshiro256 rng(0x9e3779b9);
  for (int k = 0; k < 5000; ++k) {
    const std::uint64_t seq = 1 + rng.next() % 4096;
    link_.on_receive(from_peer(2, seq));
    ASSERT_LE(link_.rx_ahead_size(2), small_window().dedup_window);
  }
}

TEST_F(ReliableRxTest, EvictionDoesNotReadmitEvictedSequences) {
  // Fill well past the window so the earliest even seqs get evicted into
  // the floor, then replay them: every replay must classify as a duplicate
  // (suppressed and counted), never as fresh work for the controller.
  for (std::uint64_t seq = 2; seq <= 60; seq += 2) {
    link_.on_receive(from_peer(2, seq));
  }
  ASSERT_GT(link_.rx_floor(2), 2u) << "window never evicted";

  const std::uint64_t before = link_.stats().duplicates_suppressed;
  std::uint64_t replayed = 0;
  for (std::uint64_t seq = 2; seq <= 60; seq += 2) {
    EXPECT_EQ(link_.on_receive(from_peer(2, seq)), ReceiveAction::kDuplicate)
        << "seq " << seq << " re-admitted";
    ++replayed;
  }
  EXPECT_EQ(link_.stats().duplicates_suppressed, before + replayed);
  // And the never-sent odd seqs below the floor are unavoidably treated as
  // seen too — that is the documented cost of the bounded window.
  EXPECT_EQ(link_.on_receive(from_peer(2, 3)), ReceiveAction::kDuplicate);
}

TEST_F(ReliableRxTest, SuppressedDuplicatesStillGetTheirAckResent) {
  EXPECT_EQ(link_.on_receive(from_peer(2, 5, /*ack=*/true)),
            ReceiveAction::kFresh);
  ASSERT_EQ(net_.sent.size(), 1u);
  // The retransmitted copy is suppressed but re-acked (first ack lost).
  EXPECT_EQ(link_.on_receive(from_peer(2, 5, /*ack=*/true)),
            ReceiveAction::kDuplicate);
  ASSERT_EQ(net_.sent.size(), 2u);
  for (const Envelope& envelope : net_.sent) {
    const auto* ack = std::get_if<DeliveryAck>(&envelope.message);
    ASSERT_NE(ack, nullptr);
    EXPECT_EQ(ack->acked_seq, 5u);
  }
  EXPECT_EQ(link_.stats().acks_sent, 2u);
}

TEST_F(ReliableRxTest, SequenceZeroBypassesDedupEntirely) {
  // Raw senders (legacy tests, byzantine actors) use seq 0: always fresh,
  // never remembered, never acknowledged.
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(link_.on_receive(from_peer(2, 0)), ReceiveAction::kFresh);
  }
  EXPECT_EQ(link_.rx_ahead_size(2), 0u);
  EXPECT_EQ(link_.rx_floor(2), 0u);
  EXPECT_TRUE(net_.sent.empty());
}

TEST_F(ReliableRxTest, PeeringRequestResetsTheDedupState) {
  // A restarted peer begins sequencing from 1 again; its fresh
  // PeeringRequest must not be swallowed as an ancient duplicate.
  for (std::uint64_t seq = 1; seq <= 50; ++seq) {
    link_.on_receive(from_peer(2, seq));
  }
  ASSERT_EQ(link_.rx_floor(2), 50u);

  Envelope restart{2, 1, PeeringRequest{}};
  restart.seq = 1;
  EXPECT_EQ(link_.on_receive(restart), ReceiveAction::kFresh);
  EXPECT_EQ(link_.rx_floor(2), 1u);  // state restarted with the peer
}

TEST_F(ReliableRxTest, StateIsPerPeer) {
  link_.on_receive(from_peer(2, 7));
  link_.on_receive(from_peer(3, 9));
  EXPECT_EQ(link_.rx_ahead_size(2), 1u);
  EXPECT_EQ(link_.rx_ahead_size(3), 1u);
  EXPECT_EQ(link_.rx_ahead_size(4), 0u);  // never heard from
  EXPECT_EQ(link_.rx_floor(4), 0u);
}

}  // namespace
}  // namespace discs
