// Mark stamping, verification and erasure for both packet formats
// (paper §V-D..§V-F).
//
//  IPv4: the 29-bit truncated AES-CMAC replaces Identification (16 b) +
//        Fragment Offset (13 b); the 3 flag bits are preserved; the header
//        checksum is updated incrementally (RFC 1624). After a successful
//        verification the fields are replaced with random bits.
//  IPv6: the 4-byte MAC rides a DISCS destination option placed before any
//        routing header; stamping may grow the packet by up to 8 bytes, so
//        the stamper reports when the result would exceed the link MTU
//        (the caller then emits ICMPv6 Packet Too Big with MTU-8).
#pragma once

#include <optional>

#include "common/rng.hpp"
#include "crypto/cmac.hpp"
#include "net/ipv4.hpp"
#include "net/ipv6.hpp"

namespace discs {

/// Outcome of a verification attempt.
enum class VerifyResult : std::uint8_t {
  kValid,    // mark matched (current or re-keying grace key) and was erased
  kInvalid,  // mark present but wrong -> packet is spoofed
  kAbsent,   // no mark where one was required -> spoofed (IPv6 only; an
             // IPv4 packet always "carries" 29 bits, they just won't match)
};

// ---- IPv4 ----

/// Computes the 29-bit mark for `packet` under `key`.
[[nodiscard]] std::uint32_t ipv4_mark(const Ipv4Packet& packet,
                                      const AesCmac& mac);

/// Fills `work` with the deferred mark computation for `packet` (29-bit
/// truncation over the 21-byte msg); after mac_truncated_batch() the
/// result equals ipv4_mark(packet, mac).
void ipv4_mark_work(const Ipv4Packet& packet, const AesCmac& mac,
                    CmacWork& work);

/// Writes the mark into IPID + Fragment Offset, preserving the flag bits,
/// and updates the header checksum incrementally.
void ipv4_stamp(Ipv4Packet& packet, const AesCmac& mac);

/// ipv4_stamp with a mark computed earlier (batch pipeline phase B).
void ipv4_stamp_precomputed(Ipv4Packet& packet, std::uint32_t mark);

/// Reads the embedded 29-bit mark.
[[nodiscard]] std::uint32_t ipv4_read_mark(const Ipv4Packet& packet);

/// Verifies against one or two acceptable keys (re-keying) and, on success
/// or in erase-only mode, replaces the mark bits with random bits.
[[nodiscard]] VerifyResult ipv4_verify(Ipv4Packet& packet, const AesCmac& mac,
                                       const AesCmac* grace_mac,
                                       Xoshiro256& rng);

/// ipv4_verify with the active key's mark computed earlier; the grace key
/// (rare: only during a re-key window, and only on an active-key mismatch)
/// is still evaluated inline, exactly as ipv4_verify would.
[[nodiscard]] VerifyResult ipv4_verify_precomputed(Ipv4Packet& packet,
                                                   std::uint32_t expected,
                                                   const AesCmac* grace_mac,
                                                   Xoshiro256& rng);

/// Erase-only path (tolerance intervals): randomizes the mark fields without
/// judging them.
void ipv4_erase(Ipv4Packet& packet, Xoshiro256& rng);

// ---- IPv6 ----

/// Computes the 32-bit mark for `packet` under `key`.
[[nodiscard]] std::uint32_t ipv6_mark(const Ipv6Packet& packet,
                                      const AesCmac& mac);

/// Fills `work` with the deferred mark computation for `packet` (32-bit
/// truncation over the 40-byte msg).
void ipv6_mark_work(const Ipv6Packet& packet, const AesCmac& mac,
                    CmacWork& work);

/// Result of an IPv6 stamping attempt.
struct Ipv6StampOutcome {
  bool stamped = false;
  /// Set when stamping would push the packet past `mtu`; the packet is left
  /// unmodified and the caller must send Packet Too Big advertising mtu - 8.
  bool too_big = false;
};

/// True when inserting the DISCS option would push the packet past `mtu`.
/// Pure arithmetic over the extension-chain sizes — no mutation, no copy.
[[nodiscard]] bool ipv6_stamp_would_exceed(const Ipv6Packet& packet,
                                           std::size_t mtu);

/// Inserts the DISCS destination option (creating the extension header when
/// absent) and fixes Payload Length / Next Header chaining.
[[nodiscard]] Ipv6StampOutcome ipv6_stamp(Ipv6Packet& packet, const AesCmac& mac,
                                          std::size_t mtu);

/// Inserts the option carrying a precomputed mark, without the MTU check
/// (batch pipeline phase B — the size was checked in phase A).
void ipv6_stamp_precomputed(Ipv6Packet& packet, std::uint32_t mark);

/// Reads the embedded mark; nullopt when no DISCS option is present.
[[nodiscard]] std::optional<std::uint32_t> ipv6_read_mark(const Ipv6Packet& packet);

/// Verifies and removes the DISCS option (and the whole destination-options
/// header when it becomes empty).
[[nodiscard]] VerifyResult ipv6_verify(Ipv6Packet& packet, const AesCmac& mac,
                                       const AesCmac* grace_mac);

/// ipv6_verify with the active key's mark computed earlier (the caller
/// already established that a mark is present).
[[nodiscard]] VerifyResult ipv6_verify_precomputed(Ipv6Packet& packet,
                                                   std::uint32_t expected,
                                                   const AesCmac* grace_mac);

/// Erase-only path: removes the option without judging it.
void ipv6_erase(Ipv6Packet& packet);

}  // namespace discs
