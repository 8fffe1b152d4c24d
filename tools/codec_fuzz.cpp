// Deterministic fuzz harness over decode_envelope: a seeded corpus of
// valid encodings (every message variant, via the shared random-envelope
// generator) is pushed through structure-aware mutations — byte flips,
// truncations, extensions, and cross-frame splices — plus pure random
// garbage. Run under ASan/UBSan it hunts for memory errors; in any build
// it enforces the codec's three properties on every input:
//
//   1. decode never crashes, whatever the bytes;
//   2. anything decode accepts re-encodes canonically — encode(decoded)
//      succeeds and decodes back to an identical envelope (no
//      mis-accepted frame can smuggle divergent state between peers);
//   3. for anything decode accepts, encoded_size equals the length the
//      encoder produces.
//
// Everything is derived from --seed, so a failure reproduces exactly; the
// offending buffer is hex-dumped for a regression test. Exit 0 = clean,
// 1 = property violation. Wired into ctest (codec_fuzz_smoke) and the CI
// sanitizer legs with a fixed budget.
//
//   codec_fuzz [--seed S] [--iters N] [--corpus N]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "control/codec.hpp"

#include "control/random_envelope.hpp"

namespace {

using namespace discs;

void hex_dump(const std::vector<std::uint8_t>& bytes) {
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::fprintf(stderr, "%02x%s", bytes[i],
                 (i + 1) % 32 == 0 ? "\n" : " ");
  }
  std::fprintf(stderr, "\n");
}

[[noreturn]] void fail(const char* what, const std::vector<std::uint8_t>& bytes,
                       std::uint64_t seed, std::uint64_t iter) {
  std::fprintf(stderr,
               "codec_fuzz: %s (seed %llu, iteration %llu, %zu bytes):\n",
               what, static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(iter), bytes.size());
  hex_dump(bytes);
  std::exit(1);
}

/// The properties every input must satisfy.
void check(const std::vector<std::uint8_t>& bytes, std::uint64_t seed,
           std::uint64_t iter) {
  const auto decoded = decode_envelope(bytes);  // property 1: must not crash
  if (!decoded) return;
  // Property 2: accepted frames re-encode canonically.
  std::vector<std::uint8_t> wire;
  try {
    wire = encode_envelope(*decoded);
  } catch (const std::length_error&) {
    fail("decoded envelope refuses to re-encode", bytes, seed, iter);
  }
  const auto again = decode_envelope(wire);
  if (!again) fail("re-encoding does not decode", bytes, seed, iter);
  if (!(*again == *decoded)) {
    fail("re-encode round trip diverged", bytes, seed, iter);
  }
  // Property 3: encoded_size agrees with the encoder (which it mirrors
  // without building bytes) on the envelope minus its trace extension.
  Envelope bare = *decoded;
  bare.trace.reset();
  if (encoded_size(bare.message) != encode_envelope(bare).size()) {
    fail("encoded_size disagrees with encode_envelope", bytes, seed, iter);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::uint64_t iters = 50000;
  std::size_t corpus_size = 96;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "codec_fuzz: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--iters") {
      iters = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--corpus") {
      corpus_size = std::strtoull(value(), nullptr, 0);
    } else {
      std::fprintf(stderr,
                   "usage: codec_fuzz [--seed S] [--iters N] [--corpus N]\n");
      return 2;
    }
  }

  Xoshiro256 rng(derive_seed(seed, 0xc0dec));

  // Seed corpus: valid encodings cycling through all 12 variants. Checked
  // as-is first — the unmutated corpus must round-trip field-for-field.
  std::vector<std::vector<std::uint8_t>> corpus;
  for (std::size_t i = 0; i < corpus_size; ++i) {
    const Envelope envelope = discs::testing::random_envelope(rng, i);
    corpus.push_back(encode_envelope(envelope));
    const auto back = decode_envelope(corpus.back());
    if (!back || !(*back == envelope)) {
      fail("valid encoding failed to round-trip", corpus.back(), seed, i);
    }
  }

  std::uint64_t accepted = 0;
  for (std::uint64_t iter = 0; iter < iters; ++iter) {
    std::vector<std::uint8_t> bytes = corpus[rng.next() % corpus.size()];
    switch (rng.next() % 6) {
      case 0: {  // pure garbage, sized around real frame lengths
        bytes.resize(rng.next() % 128);
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
        break;
      }
      case 1: {  // byte flips (1..8), length preserved
        if (bytes.empty()) break;
        const std::uint64_t flips = 1 + rng.next() % 8;
        for (std::uint64_t f = 0; f < flips; ++f) {
          bytes[rng.next() % bytes.size()] ^=
              static_cast<std::uint8_t>(1u << (rng.next() % 8));
        }
        break;
      }
      case 2: {  // truncate
        bytes.resize(rng.next() % (bytes.size() + 1));
        break;
      }
      case 3: {  // extend with junk (tests the trailing-junk check)
        const std::uint64_t extra = 1 + rng.next() % 64;
        for (std::uint64_t e = 0; e < extra; ++e) {
          bytes.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        break;
      }
      case 4: {  // splice: our prefix + another frame's suffix
        const auto& other = corpus[rng.next() % corpus.size()];
        const std::size_t cut = bytes.empty() ? 0 : rng.next() % bytes.size();
        const std::size_t from =
            other.empty() ? 0 : rng.next() % other.size();
        bytes.resize(cut);
        bytes.insert(bytes.end(), other.begin() + static_cast<long>(from),
                     other.end());
        break;
      }
      default: {  // trace-extension surgery: toggle flag bit 1 and/or
                  // insert/delete extension-sized chunks at offset 24, so
                  // the flag and the 24 bytes it promises go out of sync.
        if (bytes.size() < 24) break;
        const std::uint64_t mode = rng.next() % 3;
        if (mode != 1) bytes[5] ^= 0x02;
        if (mode != 0) {
          if ((rng.next() & 1) != 0) {
            std::uint8_t chunk[24];
            for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.next());
            const std::size_t n = 1 + rng.next() % 24;
            bytes.insert(bytes.begin() + 24, chunk, chunk + n);
          } else {
            const std::size_t n =
                std::min<std::size_t>(1 + rng.next() % 24, bytes.size() - 24);
            bytes.erase(bytes.begin() + 24,
                        bytes.begin() + 24 + static_cast<long>(n));
          }
        }
        break;
      }
    }
    if (decode_envelope(bytes)) ++accepted;
    check(bytes, seed, iter);
  }

  std::printf("codec_fuzz: clean — %llu iterations, %zu-frame corpus, "
              "%llu mutants still decoded\n",
              static_cast<unsigned long long>(iters), corpus.size(),
              static_cast<unsigned long long>(accepted));
  return 0;
}
