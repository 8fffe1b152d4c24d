// Scenario: a brute-force d-DDoS against a content provider, mitigated with
// DISCS alarm mode and the built-in attack detector (paper §IV-F).
//
// The victim lacks a dedicated detection appliance, so it runs its DISCS
// functions in *alarm mode*: identified spoofing packets are sampled and
// forwarded while the controller watches the sample stream. Once a source
// AS crosses the detection threshold, the controller switches the peers to
// drop mode automatically — the full "when / which / who" on-demand
// invocation loop of §IV-E driven end to end by packets.
//
// Build & run:  ./build/examples/ddos_mitigation
#include <cstdio>

#include "core/discs_system.hpp"

using namespace discs;

int main() {
  DiscsSystem::Config cfg;
  cfg.internet.num_ases = 128;
  cfg.internet.num_prefixes = 1280;
  cfg.controller.detect_threshold = 50;  // samples before drop mode kicks in
  DiscsSystem system(cfg);

  const auto by_size = system.dataset().ases_by_space_desc();
  const AsNumber victim_as = by_size[0];
  // Five collaborators of varying size.
  std::vector<AsNumber> helpers(by_size.begin() + 1, by_size.begin() + 6);
  const AsNumber botnet_as = by_size[10];  // legacy AS hosting the botnet

  Controller& victim = system.deploy(victim_as);
  for (AsNumber helper : helpers) system.deploy(helper);
  system.settle();
  std::printf("victim AS %u peered with %zu DASes\n", victim_as,
              victim.peer_count());

  // Invoke DP+CDP in ALARM MODE: identify + sample, do not drop yet.
  std::vector<InvocationTriple> triples;
  for (const auto& prefix : victim.local_prefixes()) {
    triples.push_back({prefix,
                       invoke_mask(InvokableFunction::kDp) |
                           invoke_mask(InvokableFunction::kCdp),
                       24 * kHour});
  }
  victim.invoke(triples, /*alarm_mode=*/true);
  system.settle(10 * kSecond);
  std::printf("alarm mode armed (threshold: 50 samples / source AS)\n\n");

  // The botnet ramps up: spoofed packets claiming the helpers' address
  // space (the kind CDP-verify can judge) arrive in waves.
  std::size_t wave = 0;
  while (victim.engine().alarm_mode() && wave < 50) {
    ++wave;
    for (int k = 0; k < 20; ++k) {
      SpoofFlow flow{botnet_as, helpers[static_cast<std::size_t>(k) % helpers.size()],
                     victim_as, AttackType::kDirect};
      auto packet = system.sampler().attack_packet(flow);
      (void)system.send_packet(botnet_as, packet);
    }
    system.settle(kSecond);
  }
  std::printf("detector fired after wave %zu: alarm mode -> drop mode\n", wave);
  std::printf("victim sampled %llu spoofed packets before deciding\n",
              static_cast<unsigned long long>(
                  victim.engine().stats().in_spoof_sampled));

  // From now on the same traffic is dropped at the victim's border.
  AttackReport after;
  for (int k = 0; k < 500; ++k) {
    SpoofFlow flow{botnet_as, helpers[static_cast<std::size_t>(k) % helpers.size()],
                   victim_as, AttackType::kDirect};
    auto packet = system.sampler().attack_packet(flow);
    const auto result = system.send_packet(botnet_as, packet);
    ++after.packets_sent;
    if (result.outcome == DeliveryOutcome::kDelivered) ++after.delivered;
    if (result.outcome == DeliveryOutcome::kDroppedAtDestination) {
      ++after.dropped_at_destination;
    }
  }
  std::printf("\ndrop mode: %zu sent, %zu dropped at victim ingress, %zu delivered\n",
              after.packets_sent, after.dropped_at_destination, after.delivered);

  // Meanwhile agents that squat inside a collaborating DAS never get a
  // single packet out.
  const auto inside =
      system.run_attack(AttackType::kDirect, helpers[0], victim_as, 200);
  std::printf("agents inside helper AS %u: %zu/%zu killed at egress (DP)\n",
              helpers[0], inside.dropped_at_source, inside.packets_sent);

  // Cost story: the defense ran only where and when it was needed.
  const RouterStats counters = victim.engine().stats();
  std::printf("\nrouter counters at the victim: %llu verified, %llu spoof-dropped, %llu passed unverified\n",
              static_cast<unsigned long long>(counters.in_verified),
              static_cast<unsigned long long>(counters.in_spoof_dropped),
              static_cast<unsigned long long>(counters.in_passed_unverified));
  return 0;
}
