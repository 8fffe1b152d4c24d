// One packet through BorderRouter's batch walk: the packet is moved into a
// one-packet span, processed by process_{outbound,inbound}_batch, and moved
// back out stamped, erased or untouched. Tests and paper-figure benches
// that drive the router one packet at a time use these, so they pin the
// walk production runs.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <variant>

#include "dataplane/router.hpp"

namespace discs {

template <typename Packet>
Verdict outbound_one(BorderRouter& router, Packet& packet, SimTime now) {
  BatchPacket slot(std::move(packet));
  const std::uint32_t index = 0;
  Verdict verdict = Verdict::kPass;
  router.process_outbound_batch(std::span(&slot, 1), std::span(&index, 1),
                                std::span(&verdict, 1), now);
  packet = std::get<Packet>(std::move(slot));
  return verdict;
}

template <typename Packet>
Verdict inbound_one(BorderRouter& router, Packet& packet, SimTime now) {
  BatchPacket slot(std::move(packet));
  const std::uint32_t index = 0;
  Verdict verdict = Verdict::kPass;
  router.process_inbound_batch(std::span(&slot, 1), std::span(&index, 1),
                               std::span(&verdict, 1), now);
  packet = std::get<Packet>(std::move(slot));
  return verdict;
}

}  // namespace discs
