// DiscsSystem — the public facade of this library and the paper's system in
// one object: a simulated inter-AS internet where ASes deploy DISCS, find
// each other through BGP DISCS-Ads, peer, exchange keys, and defend each
// other's prefixes on demand, with packets flowing through the real data
// plane (AES-CMAC marks and all). Each DAS has one data plane, its
// controller's sharded DataPlaneEngine; send_packet and run_attack are
// send_batch over one-packet batches.
//
// Typical use (see examples/quickstart.cpp):
//
//   DiscsSystem system(DiscsSystem::Config{});
//   system.deploy(victim_as);
//   system.deploy(helper_as);
//   system.settle();
//   system.controller(victim_as)->invoke_ddos_defense(prefix, false);
//   system.settle();
//   auto result = system.send_packet(agent_as, spoofed_packet);
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "attack/traffic.hpp"
#include "bgp/simulator.hpp"
#include "control/controller.hpp"
#include "topology/synthetic.hpp"

namespace discs {

/// Where a packet journey ended.
enum class DeliveryOutcome : std::uint8_t {
  kDelivered,          // reached a host in the destination AS
  kDroppedAtSource,    // source-DAS egress (DP/SP) dropped it
  kDroppedAtDestination,  // destination-DAS ingress (CDP/CSP verify) dropped it
  kUnroutable,         // no AS-level path / unknown destination prefix
};

struct DeliveryResult {
  DeliveryOutcome outcome = DeliveryOutcome::kDelivered;
  Verdict source_verdict = Verdict::kPass;
  Verdict destination_verdict = Verdict::kPass;
  /// AS-level forwarding path the packet took (or would have taken).
  std::vector<AsNumber> path;
};

/// Aggregate of a scripted attack run.
struct AttackReport {
  std::size_t packets_sent = 0;
  std::size_t dropped_at_source = 0;       // egress filtering (DP/SP)
  std::size_t dropped_at_destination = 0;  // mark verification (CDP/CSP)
  std::size_t delivered = 0;               // attack traffic that got through
  [[nodiscard]] double filtered_fraction() const {
    return packets_sent == 0
               ? 0.0
               : 1.0 - static_cast<double>(delivered) /
                           static_cast<double>(packets_sent);
  }
};

class DiscsSystem {
 public:
  struct Config {
    /// Synthetic internet scale (kept small by default; raise for studies).
    SyntheticConfig internet{.num_ases = 64,
                             .num_prefixes = 640,
                             .seed = 20121011};
    GraphConfig graph{};
    SimTime channel_latency = 20 * kMillisecond;
    /// Fault model applied to the con-con channel (drop/duplicate/reorder/
    /// partition). Lossless by default; the chaos suite dials it up.
    FaultPlan fault_plan{};
    /// Template applied to every deployed controller (as/seed overridden).
    ControllerConfig controller{};
    std::uint64_t seed = 1;
  };

  /// Builds a default small synthetic internet.
  DiscsSystem() : DiscsSystem(Config{}) {}

  /// Builds the internet from config.internet.
  explicit DiscsSystem(Config config);

  /// Builds over a caller-provided dataset (e.g. a real CAIDA snapshot).
  DiscsSystem(InternetDataset dataset, Config config);

  // ---- deployment ----

  /// Deploys DISCS at `as`: spins up its controller, floods its DISCS-Ad in
  /// a BGP re-origination of the AS's first prefix, and hands every
  /// controller the Ads now visible in its Loc-RIB. Call settle() afterwards
  /// to let peering and key exchange complete.
  Controller& deploy(AsNumber as);

  /// Un-deploys DISCS at `as`: tears down its peerings, withdraws the
  /// Ad-carrying BGP origination, and destroys the controller. The AS
  /// reverts to a legacy AS; other DASes drop its keys. No-op when the AS
  /// is not deployed.
  void undeploy(AsNumber as);

  /// Runs the control plane until `window` of simulated time passes
  /// (bounded, because re-key timers self-reschedule forever).
  void settle(SimTime window = 30 * kSecond);

  [[nodiscard]] bool is_das(AsNumber as) const { return controllers_.contains(as); }
  [[nodiscard]] Controller* controller(AsNumber as);
  [[nodiscard]] std::vector<AsNumber> deployed_ases() const;

  // ---- packet plane ----

  /// Sends `packet` from a host inside `origin_as`: source-DAS egress
  /// processing, AS-path forwarding (legacy ASes don't touch the packet),
  /// destination-DAS ingress processing. IPv6 packets traverse the §V-F
  /// data plane (destination-option marks) over the same AS topology. This
  /// is send_batch over a one-packet batch; the packet is mutated in place.
  DeliveryResult send_packet(AsNumber origin_as, Ipv4Packet& packet);
  DeliveryResult send_packet(AsNumber origin_as, Ipv6Packet& packet);

  /// Sends a whole PacketBatch from `origin_as` through the per-DAS
  /// DataPlaneEngines (sharded outbound at the source, sharded inbound per
  /// destination DAS). Packets are mutated in place (stamping, mark
  /// erasure); the result vector is aligned with batch indices. AS-level
  /// paths are computed once per destination AS within the batch, each
  /// touching only the endpoints' provider ancestry (AsGraph::path).
  std::vector<DeliveryResult> send_batch(AsNumber origin_as, PacketBatch& batch);

  /// Same, with an explicit timestamp instead of loop().now() — for callers
  /// on threads that must not touch the EventLoop while it may be observed
  /// elsewhere. Control-plane transactions interleave safely: they apply
  /// under the engines' writer locks.
  std::vector<DeliveryResult> send_batch(AsNumber origin_as, PacketBatch& batch,
                                         SimTime now);

  /// Scripted spoofing attack: `packets` attack packets of `type` from
  /// agents inside `agent_as` against victim AS owning `victim`, one packet
  /// per send_batch call (run_attack_batched with batch_size 1).
  AttackReport run_attack(AttackType type, AsNumber agent_as, AsNumber victim_as,
                          std::size_t packets);

  /// run_attack in `batch_size` chunks per send_batch call: samples the
  /// identical packet stream (same sampler state evolution) and aggregates
  /// the same report whatever the chunking.
  AttackReport run_attack_batched(AttackType type, AsNumber agent_as,
                                  AsNumber victim_as, std::size_t packets,
                                  std::size_t batch_size = 512);

  // ---- introspection ----

  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] const InternetDataset& dataset() const { return dataset_; }
  [[nodiscard]] const AsGraph& graph() const { return graph_; }
  [[nodiscard]] BgpSimulator& bgp() { return bgp_; }
  [[nodiscard]] ConConNetwork& channel() { return channel_; }
  [[nodiscard]] TrafficSampler& sampler() { return sampler_; }
  [[nodiscard]] SimTime now() const { return loop_.now(); }

 private:
  void distribute_ads();

  /// Samples the next attack packet of run_attack_batched.
  Ipv4Packet sample_attack_packet(AttackType type, AsNumber agent_as,
                                  AsNumber victim_as);

  Config config_;
  InternetDataset dataset_;
  AsGraph graph_;
  EventLoop loop_;
  ConConNetwork channel_;
  BgpSimulator bgp_;
  TrafficSampler sampler_;
  std::map<AsNumber, std::unique_ptr<Controller>> controllers_;
  std::map<AsNumber, Prefix4> ad_prefix_;  // the origination carrying the Ad
};

}  // namespace discs
