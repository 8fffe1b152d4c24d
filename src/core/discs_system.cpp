#include "core/discs_system.hpp"

#include <algorithm>
#include <stdexcept>

namespace discs {

DiscsSystem::DiscsSystem(Config config)
    : DiscsSystem(generate_dataset(config.internet), config) {}

DiscsSystem::DiscsSystem(InternetDataset dataset, Config config)
    : DiscsSystem(std::move(dataset), AsGraph{}, config) {}

DiscsSystem::DiscsSystem(InternetDataset dataset, AsGraph graph, Config config)
    : config_(config),
      dataset_(std::move(dataset)),
      // The two-argument form passes an empty graph: generate one.
      graph_(graph.as_count() != 0
                 ? std::move(graph)
                 : generate_graph(dataset_.ases_by_space_desc(), config.graph)),
      channel_(loop_, config.channel_latency),
      bgp_(graph_),
      sampler_(dataset_, derive_seed(config.seed, 0x7af)) {
  if (!config_.fault_plan.lossless()) {
    channel_.set_fault_plan(config_.fault_plan);
  }

  // Dense AS slots: every topology node (slot == node index), then any
  // Pfx2AS origin the topology lacks. The world's Pfx2AS maps each prefix
  // to its first origin's interned code; code_slot turns a code into the
  // origin's slot.
  const std::vector<AsNumber>& nodes = graph_.ases();
  slots_.reserve(nodes.size());
  for (std::uint32_t n = 0; n < nodes.size(); ++n) {
    slots_.push_back(AsSlot{nodes[n], n, nullptr});
    slot_index_.emplace(nodes[n], n);
  }
  const auto code_slots = [&](const std::vector<AsNumber>& origins) {
    std::vector<std::uint32_t> code_slot{kNoSlot};
    code_slot.reserve(origins.size() + 1);
    for (const AsNumber as : origins) {
      const auto [it, inserted] = slot_index_.try_emplace(
          as, static_cast<std::uint32_t>(slots_.size()));
      if (inserted) slots_.push_back(AsSlot{as, kNoSlot, nullptr});
      code_slot.push_back(it->second);
    }
    return code_slot;
  };
  pfx2as_ = dataset_.pfx2as_snapshot();
  code_slot4_ = code_slots(pfx2as_->c4.values());
  code_slot6_ = code_slots(pfx2as_->c6.values());
  route_rows_.resize(nodes.size());
  route_state_.assign(slots_.size(), 0);
  inbound_.resize(slots_.size());
}

Controller& DiscsSystem::deploy(AsNumber as) {
  if (const auto it = controllers_.find(as); it != controllers_.end()) {
    return *it->second;
  }
  if (!graph_.contains(as)) {
    throw std::invalid_argument("deploy: AS not in the topology");
  }
  const auto prefixes = dataset_.prefixes_of(as);
  if (prefixes.empty()) {
    throw std::invalid_argument("deploy: AS owns no prefixes");
  }

  ControllerConfig cfg = config_.controller;
  cfg.as = as;
  cfg.controller_name = "controller.as" + std::to_string(as);
  cfg.seed = derive_seed(config_.seed, as);
  auto controller = std::make_unique<Controller>(cfg, loop_, channel_, dataset_);

  // Flood the DISCS-Ad in a (re-)origination of a prefix this AS is the
  // primary origin of (paper §IV-B: prepend/de-prepend keeps reachability
  // intact). MOAS prefixes co-owned with another primary origin are skipped
  // because only one AS may originate a prefix in the BGP model.
  const Prefix4* own = nullptr;
  for (const Prefix4& p : prefixes) {
    if (dataset_.origins_of(p.address()).front() == as) {
      own = &p;
      break;
    }
  }
  const Prefix4 ad_prefix = own != nullptr ? *own : prefixes.front();
  bgp_.originate(as, ad_prefix, {controller->advertisement().to_attribute()});
  ad_prefix_.emplace(as, ad_prefix);
  slots_[slot_of(as)].controller = controller.get();
  controllers_.emplace(as, std::move(controller));

  distribute_ads();
  return *controllers_.at(as);
}

void DiscsSystem::undeploy(AsNumber as) {
  const auto it = controllers_.find(as);
  if (it == controllers_.end()) return;
  it->second->shutdown();
  slots_[slot_of(as)].controller = nullptr;
  controllers_.erase(it);
  // Re-originate the prefix without the Ad so reachability is unaffected;
  // the visible path change flushes the stale attribute from Loc-RIBs.
  const auto prefix = ad_prefix_.find(as);
  if (prefix != ad_prefix_.end()) {
    bgp_.originate(as, prefix->second, {});
    ad_prefix_.erase(prefix);
  }
  // Let the teardown messages drain.
  settle(kSecond);
}

void DiscsSystem::distribute_ads() {
  // Every controller learns whatever DISCS-Ads its Loc-RIB now carries.
  // discover() is idempotent per origin, so repeated distribution is cheap.
  for (auto& [as, controller] : controllers_) {
    for (const DiscsAd& ad : bgp_.ads_seen(as)) {
      controller->discover(ad);
    }
  }
}

void DiscsSystem::settle(SimTime window) { loop_.run_until(loop_.now() + window); }

Controller* DiscsSystem::controller(AsNumber as) {
  const auto it = controllers_.find(as);
  return it == controllers_.end() ? nullptr : it->second.get();
}

std::vector<AsNumber> DiscsSystem::deployed_ases() const {
  std::vector<AsNumber> result;
  result.reserve(controllers_.size());
  for (const auto& [as, controller] : controllers_) result.push_back(as);
  return result;
}

namespace {

/// A one-packet send_batch call: the engines run it inline on the shard its
/// flow hashes to. The packet comes back stamped or with its mark erased.
template <typename Packet>
DeliveryResult send_one(DiscsSystem& system, AsNumber origin_as,
                        Packet& packet) {
  PacketBatch batch;
  batch.add(std::move(packet));
  DeliveryResult result =
      std::move(system.send_batch(origin_as, batch).front());
  packet = std::move(std::get<Packet>(batch[0]));
  return result;
}

}  // namespace

DeliveryResult DiscsSystem::send_packet(AsNumber origin_as, Ipv4Packet& packet) {
  return send_one(*this, origin_as, packet);
}

DeliveryResult DiscsSystem::send_packet(AsNumber origin_as, Ipv6Packet& packet) {
  return send_one(*this, origin_as, packet);
}

std::vector<DeliveryResult> DiscsSystem::send_batch(AsNumber origin_as,
                                                    PacketBatch& batch) {
  return send_batch(origin_as, batch, loop_.now());
}

std::vector<DeliveryResult> DiscsSystem::send_batch(AsNumber origin_as,
                                                    PacketBatch& batch,
                                                    SimTime now) {
  std::vector<DeliveryResult> results(batch.size());
  if (batch.empty()) return results;
  const std::uint32_t origin = slot_of(origin_as);
  if (origin == kNoSlot || slots_[origin].node == kNoSlot) {
    // An origin outside the topology reaches nothing.
    for (DeliveryResult& r : results) r.outcome = DeliveryOutcome::kUnroutable;
    return results;
  }
  std::vector<std::uint8_t>& route_row = route_rows_[slots_[origin].node];
  if (route_row.empty()) route_row.assign(graph_.as_count(), 0);

  // The previous call's scratch is cleared here rather than on its way out,
  // so an exception thrown mid-call cannot leak it into this one.
  for (const std::uint32_t dst : touched_) {
    route_state_[dst] = 0;
    inbound_[dst].clear();
  }
  touched_.clear();

  // Resolve: compiled Pfx2AS to a destination slot, then routability from
  // the origin's row, memoized per destination slot for this call.
  dst_slot_.assign(batch.size(), kNoSlot);
  crossing_.clear();
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    const std::uint32_t dst = std::visit(
        [&](const auto& p) { return slot_at(p.header.dst); }, batch[i]);
    if (dst == kNoSlot || slots_[dst].node == kNoSlot) {
      results[i].outcome = DeliveryOutcome::kUnroutable;
      continue;
    }
    std::uint8_t& state = route_state_[dst];
    if (state == 0) {
      std::uint8_t& known = route_row[slots_[dst].node];
      if (known == 0) {
        known = graph_.path(origin_as, slots_[dst].as).empty() ? 1 : 2;
      }
      state = known;
      touched_.push_back(dst);
    }
    if (state == 1) {
      results[i].outcome = DeliveryOutcome::kUnroutable;
      continue;
    }
    dst_slot_[i] = dst;
    // Intra-AS traffic never crosses a border and skips both stages.
    if (dst != origin) crossing_.push_back(i);
  }

  // Both engine stages run through the scatter view: the batch stays flat
  // and the engines receive index lists into it — packets are stamped and
  // verified in place, never gathered into per-stage sub-batches.
  verdicts_.resize(batch.size());

  // Outbound stage: one engine pass at the origin DAS.
  if (Controller* source = slots_[origin].controller; source != nullptr) {
    source->engine().process_outbound(batch.span(), crossing_, verdicts_, now);
    for (const std::uint32_t i : crossing_) {
      results[i].source_verdict = verdicts_[i];
      if (is_drop(verdicts_[i])) {
        results[i].outcome = DeliveryOutcome::kDroppedAtSource;
      }
    }
  }

  // Inbound stage: survivors partitioned by destination DAS, one engine
  // pass (one index view) per DAS, in first-seen order.
  for (const std::uint32_t i : crossing_) {
    if (results[i].outcome == DeliveryOutcome::kDroppedAtSource) continue;
    const std::uint32_t dst = dst_slot_[i];
    if (slots_[dst].controller != nullptr) inbound_[dst].push_back(i);
  }
  for (const std::uint32_t dst : touched_) {
    const std::vector<std::uint32_t>& idx = inbound_[dst];
    if (idx.empty()) continue;
    slots_[dst].controller->engine().process_inbound(batch.span(), idx,
                                                     verdicts_, now);
    for (const std::uint32_t i : idx) {
      results[i].destination_verdict = verdicts_[i];
      if (is_drop(verdicts_[i])) {
        results[i].outcome = DeliveryOutcome::kDroppedAtDestination;
      }
    }
  }
  return results;
}

Ipv4Packet DiscsSystem::sample_attack_packet(AttackType type,
                                             AsNumber agent_as,
                                             AsNumber victim_as) {
  SpoofFlow flow = sampler_.sample_flow(type);
  flow.agent = agent_as;
  flow.victim = victim_as;
  while (true) {
    while (flow.innocent == flow.agent || flow.innocent == flow.victim) {
      flow.innocent = sampler_.sample_as();
    }
    Ipv4Packet packet = sampler_.attack_packet(flow);
    // MOAS prefixes can map a role's sampled address into the agent's own
    // AS, turning the flow intra-AS (it would never cross a border);
    // resample those so every reported packet is a real inter-AS attack.
    const AsNumber dst_as = origin_of(packet.header.dst);
    if (dst_as != agent_as && dst_as != kNoAs) return packet;
    flow.innocent = sampler_.sample_as();
  }
}

namespace {

void count_outcome(AttackReport& report, DeliveryOutcome outcome) {
  ++report.packets_sent;
  switch (outcome) {
    case DeliveryOutcome::kDroppedAtSource:
      ++report.dropped_at_source;
      break;
    case DeliveryOutcome::kDroppedAtDestination:
      ++report.dropped_at_destination;
      break;
    case DeliveryOutcome::kDelivered:
      ++report.delivered;
      break;
    case DeliveryOutcome::kUnroutable:
      break;
  }
}

}  // namespace

AttackReport DiscsSystem::run_attack(AttackType type, AsNumber agent_as,
                                     AsNumber victim_as, std::size_t packets) {
  return run_attack_batched(type, agent_as, victim_as, packets, 1);
}

AttackReport DiscsSystem::run_attack_batched(AttackType type, AsNumber agent_as,
                                             AsNumber victim_as,
                                             std::size_t packets,
                                             std::size_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  AttackReport report;
  std::size_t remaining = packets;
  while (remaining > 0) {
    const std::size_t chunk = std::min(remaining, batch_size);
    PacketBatch batch;
    batch.reserve(chunk);
    for (std::size_t k = 0; k < chunk; ++k) {
      batch.add(sample_attack_packet(type, agent_as, victim_as));
    }
    for (const DeliveryResult& result : send_batch(agent_as, batch)) {
      count_outcome(report, result.outcome);
    }
    remaining -= chunk;
  }
  return report;
}

}  // namespace discs
