// Scenario: a DNS-amplification-style reflection attack (s-DDoS), defended
// with SP + CSP (paper §III-B, §IV-E2).
//
// Agents spoof the victim's source addresses in requests to open resolvers;
// the resolvers' large responses then flood the victim. With DISCS:
//   * SP at every peer kills forged requests leaving the peer's network;
//   * CSP lets the resolver-hosting peers verify that packets claiming the
//     victim's addresses really left the victim's network — forged requests
//     arriving from the legacy internet carry no valid mark and die at the
//     reflector's ingress, so no amplified response is ever generated.
//
// Build & run:  ./build/examples/reflection_defense
#include <cstdio>

#include "core/discs_system.hpp"

using namespace discs;

int main() {
  DiscsSystem::Config cfg;
  cfg.internet.num_ases = 96;
  cfg.internet.num_prefixes = 960;
  DiscsSystem system(cfg);

  const auto by_size = system.dataset().ases_by_space_desc();
  const AsNumber victim_as = by_size[0];
  const AsNumber resolver_as = by_size[1];  // hosts the open resolvers
  const AsNumber botnet_as = by_size[7];    // legacy AS with the agents

  Controller& victim = system.deploy(victim_as);
  Controller& resolver = system.deploy(resolver_as);
  system.settle();

  std::printf("victim AS %u and resolver-hosting AS %u are DISCS peers\n",
              victim_as, resolver_as);

  // Reflection attack before any invocation: forged requests reach the
  // resolvers unhindered.
  const auto before =
      system.run_attack(AttackType::kReflection, botnet_as, victim_as, 1000);
  std::printf("before invocation: %zu/%zu forged requests delivered to reflectors\n",
              before.delivered, before.packets_sent);

  // Victim invokes SP+CSP for its prefixes.
  victim.invoke_ddos_defense_all(/*spoofed_source=*/true);
  system.settle(10 * kSecond);
  std::printf("SP+CSP invoked at %zu peer(s)\n\n", victim.peer_count());

  // 1. The victim's own genuine requests to the resolver AS still work:
  //    CSP stamps them at the victim's border and the resolver verifies.
  std::size_t genuine_ok = 0;
  for (int k = 0; k < 200; ++k) {
    auto request = system.sampler().legit_packet(victim_as, resolver_as);
    genuine_ok +=
        system.send_packet(victim_as, request).outcome == DeliveryOutcome::kDelivered;
  }
  std::printf("genuine victim->resolver requests delivered: %zu/200 (stamped %llu, verified %llu)\n",
              genuine_ok,
              static_cast<unsigned long long>(victim.engine().stats().out_stamped),
              static_cast<unsigned long long>(resolver.engine().stats().in_verified));

  // 2. Forged requests from the legacy botnet claiming the victim's space:
  //    the reflector AS ingress (CSP-verify) rejects them — the amplified
  //    response is never produced.
  AttackReport forged;
  for (int k = 0; k < 1000; ++k) {
    SpoofFlow flow{botnet_as, resolver_as, victim_as, AttackType::kReflection};
    auto request = system.sampler().attack_packet(flow);
    const auto result = system.send_packet(botnet_as, request);
    ++forged.packets_sent;
    if (result.outcome == DeliveryOutcome::kDelivered) ++forged.delivered;
    if (result.outcome == DeliveryOutcome::kDroppedAtDestination) {
      ++forged.dropped_at_destination;
    }
  }
  std::printf("forged requests toward the resolver AS: %zu sent, %zu dropped at reflector ingress, %zu delivered\n",
              forged.packets_sent, forged.dropped_at_destination,
              forged.delivered);

  // 3. Agents inside the resolver AS itself: SP kills the forged requests
  //    at that AS's egress before they reach any external reflector.
  const auto inside =
      system.run_attack(AttackType::kReflection, resolver_as, victim_as, 500);
  std::printf("forged requests from inside the resolver AS: %zu/%zu dropped at egress (SP)\n",
              inside.dropped_at_source, inside.packets_sent);

  std::printf("\nremaining exposure: reflectors in legacy ASes (%zu/%zu delivered above)\n",
              forged.delivered, forged.packets_sent);
  std::printf("-> incentive to deploy: every resolver AS that joins closes its slice.\n");
  return 0;
}
