// Deterministic, seed-driven fuzz harness for the wire codec trust boundary.
//
// decode_packet consumes bytes from the (simulated) Internet, so it must be
// total: any byte string either decodes to a Packet or is rejected with a
// DecodeError — never a crash, never an out-of-bounds read, and never an
// inconsistent round-trip. The harness mutates valid encodings with bit
// flips, truncations, and targeted header lies (IHL, total length, option
// length, RR pointer, TS flags), then checks two properties on every mutant:
//
//   1. Totality: decode_packet returns (under ASan/UBSan in scripts/check.sh
//      this also proves no memory error / UB on the way).
//   2. Round-trip consistency: if a mutant decodes, re-encoding the decoded
//      Packet and decoding again yields the same Packet — i.e. decode is a
//      normalizing projection, so a forged reply cannot smuggle state that
//      survives one hop through the codec but changes on the next.
//
// Everything is driven by revtr::util::Rng with fixed seeds: failures
// reproduce bit-for-bit from the iteration number alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "net/checksum.h"
#include "net/ip_options.h"
#include "net/packet.h"
#include "net/wire.h"
#include "server/frame.h"
#include "util/check.h"
#include "util/rng.h"

namespace revtr::net {
namespace {

constexpr std::uint64_t kSeed = 0x7e7e5eedULL;
// Acceptance floor: >= 10,000 mutated packets per full run. Split across the
// mutation strategies below; each test states its share.
constexpr std::size_t kMutationIters = 6000;
constexpr std::size_t kChecksumFixedIters = 3000;
constexpr std::size_t kRandomBufferIters = 2000;

// --- Seed corpus: one valid encoding per packet shape the codec supports. ---
std::vector<Packet> seed_corpus() {
  std::vector<Packet> corpus;

  // Plain echo request / reply.
  corpus.push_back(make_echo_request(Ipv4Addr(10, 0, 0, 1),
                                     Ipv4Addr(192, 0, 2, 7), 0x1234, 1));
  {
    Packet reply = make_echo_request(Ipv4Addr(192, 0, 2, 7),
                                     Ipv4Addr(10, 0, 0, 1), 0x1234, 2);
    reply.type = IcmpType::kEchoReply;
    corpus.push_back(reply);
  }

  // Record Route at several fill levels (empty, partial, full).
  for (const std::size_t fill : {std::size_t{0}, std::size_t{4},
                                 RecordRouteOption::kMaxSlots}) {
    Packet p = make_echo_request(Ipv4Addr(10, 0, 0, 2),
                                 Ipv4Addr(198, 51, 100, 3), 7, 7);
    RecordRouteOption rr;
    for (std::size_t i = 0; i < fill; ++i) {
      rr.stamp(Ipv4Addr(util::truncate_cast<std::uint32_t>(0x0a000100 + i)));
    }
    p.rr = rr;
    corpus.push_back(p);
  }

  // Timestamp prespec with 1..4 entries and varying stamp progress.
  for (std::size_t entries = 1; entries <= TimestampOption::kMaxEntries;
       ++entries) {
    for (std::size_t stamped = 0; stamped <= entries; ++stamped) {
      Packet p = make_echo_request(Ipv4Addr(10, 0, 0, 3),
                                   Ipv4Addr(203, 0, 113, 9), 9, 9);
      std::vector<Ipv4Addr> addrs;
      for (std::size_t i = 0; i < entries; ++i) {
        addrs.push_back(
            Ipv4Addr(util::truncate_cast<std::uint32_t>(0xc0000200 + i)));
      }
      auto ts = TimestampOption::prespecified(addrs);
      for (std::size_t i = 0; i < stamped; ++i) {
        ts.try_stamp(addrs[i],
                     util::truncate_cast<std::uint32_t>(1000 * (i + 1)));
      }
      p.ts = ts;
      corpus.push_back(p);
    }
  }

  // ICMP errors (time exceeded, destination unreachable), with and without
  // a Record Route accumulated before the TTL expired.
  {
    const Packet probe = make_echo_request(Ipv4Addr(10, 0, 0, 4),
                                           Ipv4Addr(192, 0, 2, 99), 21, 3, 4);
    Packet exceeded = make_time_exceeded(probe, Ipv4Addr(198, 51, 100, 42));
    corpus.push_back(exceeded);
    RecordRouteOption rr;
    rr.stamp(Ipv4Addr(198, 51, 100, 1));
    rr.stamp(Ipv4Addr(198, 51, 100, 2));
    exceeded.rr = rr;
    corpus.push_back(exceeded);

    Packet unreachable = make_time_exceeded(probe, Ipv4Addr(192, 0, 2, 99));
    unreachable.type = IcmpType::kDestUnreachable;
    corpus.push_back(unreachable);
  }

  return corpus;
}

std::vector<std::vector<std::uint8_t>> encoded_corpus() {
  std::vector<std::vector<std::uint8_t>> encoded;
  for (const auto& packet : seed_corpus()) {
    encoded.push_back(encode_packet(packet));
  }
  return encoded;
}

// Recompute the IPv4 header and ICMP checksums so a mutant exercises the
// parsing logic *behind* the checksum gates. Best-effort on mutants whose
// geometry fields lie; never reads outside the buffer.
void fix_checksums(std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 20) return;
  const std::size_t header_len = std::size_t{bytes[0] & 0x0fu} * 4;
  if (header_len < 20 || header_len > bytes.size()) return;
  bytes[10] = 0;
  bytes[11] = 0;
  const std::uint16_t header_sum =
      internet_checksum({bytes.data(), header_len});
  bytes[10] = util::truncate_cast<std::uint8_t>(header_sum >> 8);
  bytes[11] = util::truncate_cast<std::uint8_t>(header_sum);
  if (bytes.size() < header_len + 8) return;
  bytes[header_len + 2] = 0;
  bytes[header_len + 3] = 0;
  const std::uint16_t icmp_sum = internet_checksum(
      {bytes.data() + header_len, bytes.size() - header_len});
  bytes[header_len + 2] = util::truncate_cast<std::uint8_t>(icmp_sum >> 8);
  bytes[header_len + 3] = util::truncate_cast<std::uint8_t>(icmp_sum);
}

// One mutation step. Strategies 0-2 are generic (bit flip, byte smash,
// truncate/extend); 3-7 aim at the fields whose lies historically break
// parsers: IHL, total length, option kind/length, RR pointer, TS oflw/flags.
void mutate(std::vector<std::uint8_t>& bytes, util::Rng& rng) {
  if (bytes.empty()) {
    bytes.push_back(util::truncate_cast<std::uint8_t>(rng()));
    return;
  }
  switch (rng.below(8)) {
    case 0: {  // Single bit flip.
      const std::size_t i = rng.below(bytes.size());
      bytes[i] ^= util::truncate_cast<std::uint8_t>(1u << rng.below(8));
      break;
    }
    case 1: {  // Byte overwrite.
      bytes[rng.below(bytes.size())] = util::truncate_cast<std::uint8_t>(rng());
      break;
    }
    case 2: {  // Truncate or extend with junk.
      if (rng.chance(0.5)) {
        bytes.resize(rng.below(bytes.size() + 1));
      } else {
        const std::size_t extra = 1 + rng.below(16);
        for (std::size_t i = 0; i < extra; ++i) {
          bytes.push_back(util::truncate_cast<std::uint8_t>(rng()));
        }
      }
      break;
    }
    case 3: {  // Version/IHL lies.
      bytes[0] = rng.chance(0.5)
                     ? util::truncate_cast<std::uint8_t>(0x40 | rng.below(16))
                     : util::truncate_cast<std::uint8_t>(rng());
      break;
    }
    case 4: {  // Total-length lies.
      if (bytes.size() >= 4) {
        const auto lie = util::truncate_cast<std::uint16_t>(rng());
        bytes[2] = util::truncate_cast<std::uint8_t>(lie >> 8);
        bytes[3] = util::truncate_cast<std::uint8_t>(lie);
      }
      break;
    }
    case 5: {  // Option kind/length lies at the start of the option area.
      if (bytes.size() > 21) {
        if (rng.chance(0.5)) {
          bytes[20] = rng.chance(0.5)
                          ? (rng.chance(0.5) ? RecordRouteOption::kType
                                             : TimestampOption::kType)
                          : util::truncate_cast<std::uint8_t>(rng());
        } else {
          bytes[21] = util::truncate_cast<std::uint8_t>(rng());
        }
      }
      break;
    }
    case 6: {  // RR/TS pointer field lies.
      if (bytes.size() > 22) {
        bytes[22] = util::truncate_cast<std::uint8_t>(rng());
      }
      break;
    }
    case 7: {  // TS overflow/flags lies.
      if (bytes.size() > 23) {
        bytes[23] = util::truncate_cast<std::uint8_t>(rng());
      }
      break;
    }
  }
}

// Core property check shared by all fuzz loops.
void check_totality_and_round_trip(std::span<const std::uint8_t> bytes,
                                   std::size_t iteration) {
  DecodeError error = DecodeError::kNone;
  const auto decoded = decode_packet(bytes, &error);
  if (!decoded) {
    EXPECT_NE(error, DecodeError::kNone)
        << "rejection must carry a reason (iteration " << iteration << ")";
    return;
  }
  EXPECT_EQ(error, DecodeError::kNone);
  // Normalizing projection: decode(encode(decoded)) == decoded.
  const auto reencoded = encode_packet(*decoded);
  DecodeError error2 = DecodeError::kNone;
  const auto decoded2 = decode_packet(reencoded, &error2);
  ASSERT_TRUE(decoded2.has_value())
      << "re-encoded packet must decode (iteration " << iteration
      << ", reason " << to_string(error2) << ")";
  EXPECT_TRUE(*decoded2 == *decoded)
      << "decode/encode round-trip diverged (iteration " << iteration << ")";
}

// --- The fuzz loops. Together they exceed the 10,000-iteration floor. ---

TEST(WireFuzz, MutatedPacketsNeverCrashAndRoundTrip) {
  const auto corpus = encoded_corpus();
  util::Rng rng(kSeed);
  for (std::size_t iter = 0; iter < kMutationIters; ++iter) {
    std::vector<std::uint8_t> bytes = corpus[rng.below(corpus.size())];
    const std::size_t steps = 1 + rng.below(8);
    for (std::size_t s = 0; s < steps; ++s) mutate(bytes, rng);
    check_totality_and_round_trip(bytes, iter);
  }
}

TEST(WireFuzz, ChecksumFixedMutantsReachDeepPaths) {
  // With checksums recomputed, mutants pass the two checksum gates and
  // exercise option parsing, quote parsing, and the normalization logic.
  const auto corpus = encoded_corpus();
  util::Rng rng(kSeed ^ 0xa5a5a5a5ULL);
  std::size_t accepted = 0;
  for (std::size_t iter = 0; iter < kChecksumFixedIters; ++iter) {
    std::vector<std::uint8_t> bytes = corpus[rng.below(corpus.size())];
    const std::size_t steps = 1 + rng.below(4);
    for (std::size_t s = 0; s < steps; ++s) mutate(bytes, rng);
    fix_checksums(bytes);
    DecodeError error = DecodeError::kNone;
    if (decode_packet(bytes, &error)) ++accepted;
    check_totality_and_round_trip(bytes, iter);
  }
  // The gate-bypass must actually reach deep paths: if nothing decodes, the
  // harness degenerated into a checksum test.
  EXPECT_GT(accepted, kChecksumFixedIters / 20);
}

TEST(WireFuzz, RandomBuffersNeverCrash) {
  util::Rng rng(kSeed ^ 0x5a5a5a5aULL);
  for (std::size_t iter = 0; iter < kRandomBufferIters; ++iter) {
    std::vector<std::uint8_t> bytes(rng.below(120));
    for (auto& b : bytes) b = util::truncate_cast<std::uint8_t>(rng());
    // Half the time, dress the buffer up as IPv4+ICMP so it gets past the
    // first gates with random interior.
    if (!bytes.empty() && rng.chance(0.5)) {
      bytes[0] = util::truncate_cast<std::uint8_t>(0x40 | rng.below(16));
      fix_checksums(bytes);
    }
    check_totality_and_round_trip(bytes, iter);
  }
}

TEST(WireFuzz, SeedCorpusRoundTripsExactly) {
  // The unmutated corpus must decode to the original packets: the fuzz
  // properties above are only meaningful if the baseline is exact.
  for (const auto& packet : seed_corpus()) {
    const auto bytes = encode_packet(packet);
    DecodeError error = DecodeError::kNone;
    const auto decoded = decode_packet(bytes, &error);
    ASSERT_TRUE(decoded.has_value()) << to_string(error);
    // Echo packets do not carry quoted_dst on the wire; compare the fields
    // the codec is specified to preserve.
    EXPECT_EQ(decoded->src, packet.src);
    EXPECT_EQ(decoded->dst, packet.dst);
    EXPECT_EQ(decoded->ttl, packet.ttl);
    EXPECT_EQ(decoded->type, packet.type);
    EXPECT_EQ(decoded->icmp_id, packet.icmp_id);
    EXPECT_EQ(decoded->icmp_seq, packet.icmp_seq);
    EXPECT_EQ(decoded->rr, packet.rr);
    EXPECT_EQ(decoded->ts, packet.ts);
  }
}

}  // namespace
}  // namespace revtr::net

// --- Frame-decoder fuzz: the daemon's trust boundary (server/frame.h). ----
//
// decode_frame consumes bytes a client wrote to the daemon's socket, so the
// same contract as decode_packet applies: total (every byte string either
// decodes or yields a typed FrameError — never a crash or over-read) and
// normalizing (decode(encode(decoded)) == decoded).
namespace revtr::server {
namespace {

constexpr std::uint64_t kFrameSeed = 0xf4a3e5eedULL;
constexpr std::size_t kFrameMutationIters = 6000;
constexpr std::size_t kFrameRandomIters = 2000;
constexpr std::size_t kFrameAuthGarbageIters = 2000;

// One valid message per frame type, with every enum and flag exercised.
std::vector<Message> frame_corpus() {
  std::vector<Message> corpus;
  Hello hello;
  hello.push_results = false;
  hello.api_key = "demo-key";
  corpus.push_back(hello);
  HelloOk hello_ok;
  hello_ok.tenant = 3;
  hello_ok.server_now_us = 123456789;
  hello_ok.tenant_name = "measurement-lab";
  corpus.push_back(hello_ok);
  corpus.push_back(HelloErr{RejectReason::kBadApiKey});
  Submit submit;
  submit.request_id = 0x0123456789abcdefULL;
  submit.dest_index = 42;
  submit.source_index = 1;
  submit.priority = Priority::kLow;
  submit.deadline_us = 30'000'000;
  corpus.push_back(submit);
  corpus.push_back(SubmitOk{7});
  corpus.push_back(SubmitErr{9, RejectReason::kQueueFull});
  Result result;
  result.request_id = 11;
  result.status = core::RevtrStatus::kComplete;
  result.shed = false;
  result.deadline_missed = true;
  result.sim_latency_us = 57'270'000;
  result.probes = 45;
  result.coalesced_probes = 3;
  for (std::uint8_t s = 0; s <= 6; ++s) {  // Every HopSource enumerator.
    ResultHop hop;
    hop.addr = net::Ipv4Addr(10, 0, 0, s);
    hop.source = static_cast<core::HopSource>(s);
    result.hops.push_back(hop);
  }
  corpus.push_back(result);
  corpus.push_back(Poll{16});
  corpus.push_back(PollDone{2, 5});
  corpus.push_back(Stats{});
  corpus.push_back(StatsReply{"{\"accepted\": 200}"});
  corpus.push_back(Drain{});
  corpus.push_back(DrainDone{100, 7});
  AgentRegister agent_register;
  agent_register.window = 8;
  agent_register.name = "vp-agent-1";
  corpus.push_back(agent_register);
  AgentProbe agent_probe;
  agent_probe.ticket = 0xfeedfaceULL;
  agent_probe.spec.type = probing::ProbeType::kSpoofedTimestamp;
  agent_probe.spec.from = 12;
  agent_probe.spec.target = net::Ipv4Addr(10, 1, 2, 3);
  agent_probe.spec.spoof_as = net::Ipv4Addr(10, 9, 9, 9);
  agent_probe.spec.prespec = {net::Ipv4Addr(10, 1, 2, 1),
                              net::Ipv4Addr(10, 1, 2, 2)};
  corpus.push_back(agent_probe);
  AgentProbe plain_probe;  // No spoof, no prespec: the other flag branch.
  plain_probe.ticket = 1;
  plain_probe.spec.type = probing::ProbeType::kTraceroute;
  plain_probe.spec.from = 3;
  plain_probe.spec.target = net::Ipv4Addr(10, 4, 5, 6);
  corpus.push_back(plain_probe);
  AgentProbeResult agent_result;
  agent_result.ticket = 0xfeedfaceULL;
  agent_result.reply.responded = true;
  agent_result.reply.slots = {net::Ipv4Addr(10, 0, 1, 1),
                              net::Ipv4Addr(10, 0, 1, 2)};
  agent_result.reply.stamped = {true, false};
  agent_result.reply.traceroute.reached = true;
  agent_result.reply.traceroute.duration_us = 5000;
  agent_result.reply.traceroute.hops.push_back(
      probing::TracerouteHop{net::Ipv4Addr(10, 0, 2, 1), 1200});
  agent_result.reply.traceroute.hops.push_back(
      probing::TracerouteHop{std::nullopt, 2400});  // "*" hop.
  agent_result.reply.duration_us = 7000;
  agent_result.reply.packets = 3;
  corpus.push_back(agent_result);
  corpus.push_back(AgentHeartbeat{4, 512});
  corpus.push_back(AgentDrain{99});
  return corpus;
}

std::vector<std::vector<std::uint8_t>> encoded_frame_corpus() {
  std::vector<std::vector<std::uint8_t>> encoded;
  for (const auto& message : frame_corpus()) {
    encoded.push_back(encode_frame(message));
  }
  return encoded;
}

// Mutation step for frames. Strategies 0-2 are generic; 3-5 lie in the
// header fields the decoder trusts least: magic/version/type (bytes 0-3)
// and the payload length (bytes 4-7).
void mutate_frame(std::vector<std::uint8_t>& bytes, util::Rng& rng) {
  if (bytes.empty()) {
    bytes.push_back(util::truncate_cast<std::uint8_t>(rng()));
    return;
  }
  switch (rng.below(6)) {
    case 0: {  // Single bit flip.
      const std::size_t i = rng.below(bytes.size());
      bytes[i] ^= util::truncate_cast<std::uint8_t>(1u << rng.below(8));
      break;
    }
    case 1: {  // Byte overwrite.
      bytes[rng.below(bytes.size())] =
          util::truncate_cast<std::uint8_t>(rng());
      break;
    }
    case 2: {  // Truncate or extend with junk.
      if (rng.chance(0.5)) {
        bytes.resize(rng.below(bytes.size() + 1));
      } else {
        const std::size_t extra = 1 + rng.below(16);
        for (std::size_t i = 0; i < extra; ++i) {
          bytes.push_back(util::truncate_cast<std::uint8_t>(rng()));
        }
      }
      break;
    }
    case 3: {  // Magic/version lies.
      if (bytes.size() >= 3) {
        bytes[rng.below(3)] = util::truncate_cast<std::uint8_t>(rng());
      }
      break;
    }
    case 4: {  // Frame-type lies (unknown and server/client confusions).
      if (bytes.size() >= 4) {
        bytes[3] = util::truncate_cast<std::uint8_t>(rng());
      }
      break;
    }
    case 5: {  // Length lies: oversized, undersized, or huge.
      if (bytes.size() >= 8) {
        const std::uint32_t lie =
            rng.chance(0.3) ? util::truncate_cast<std::uint32_t>(rng())
                            : util::truncate_cast<std::uint32_t>(
                                  rng.below(2 * kMaxFramePayload));
        bytes[4] = util::truncate_cast<std::uint8_t>(lie >> 24);
        bytes[5] = util::truncate_cast<std::uint8_t>(lie >> 16);
        bytes[6] = util::truncate_cast<std::uint8_t>(lie >> 8);
        bytes[7] = util::truncate_cast<std::uint8_t>(lie);
      }
      break;
    }
  }
}

// Totality + normalizing round-trip, the frame analogue of
// check_totality_and_round_trip above.
void check_frame_properties(std::span<const std::uint8_t> bytes,
                            std::size_t iteration) {
  FrameError error = FrameError::kNone;
  const auto decoded = decode_frame(bytes, &error);
  if (!decoded.has_value()) {
    EXPECT_NE(error, FrameError::kNone)
        << "rejection must carry a reason (iteration " << iteration << ")";
    return;
  }
  EXPECT_EQ(error, FrameError::kNone);
  const auto reencoded = encode_frame(*decoded);
  FrameError error2 = FrameError::kNone;
  const auto decoded2 = decode_frame(reencoded, &error2);
  ASSERT_TRUE(decoded2.has_value())
      << "re-encoded frame must decode (iteration " << iteration
      << ", reason " << to_string(error2) << ")";
  EXPECT_TRUE(*decoded2 == *decoded)
      << "frame round-trip diverged (iteration " << iteration << ")";
}

// The seeded mutation stream: each corpus frame put through 1-6
// mutate_frame steps. Shared by the property test and the verdict pin.
template <class Visit>
void for_each_mutated_frame(Visit&& visit) {
  const auto corpus = encoded_frame_corpus();
  util::Rng rng(kFrameSeed);
  for (std::size_t iter = 0; iter < kFrameMutationIters; ++iter) {
    std::vector<std::uint8_t> bytes = corpus[rng.below(corpus.size())];
    const std::size_t steps = 1 + rng.below(6);
    for (std::size_t s = 0; s < steps; ++s) mutate_frame(bytes, rng);
    visit(std::span<const std::uint8_t>(bytes), iter);
  }
}

// The random-buffer stream: junk, half of it dressed up with a valid
// magic/version and a consistent length so it reaches the payload decoders.
template <class Visit>
void for_each_random_frame(Visit&& visit) {
  util::Rng rng(kFrameSeed ^ 0x5a5a5a5aULL);
  for (std::size_t iter = 0; iter < kFrameRandomIters; ++iter) {
    std::vector<std::uint8_t> bytes(rng.below(96));
    for (auto& b : bytes) b = util::truncate_cast<std::uint8_t>(rng());
    if (bytes.size() >= kFrameHeaderSize && rng.chance(0.5)) {
      bytes[0] = util::truncate_cast<std::uint8_t>(kFrameMagic >> 8);
      bytes[1] = util::truncate_cast<std::uint8_t>(kFrameMagic);
      bytes[2] = kProtoVersion;
      bytes[3] = util::truncate_cast<std::uint8_t>(
          1 + rng.below(std::variant_size_v<Message>));
      const auto len =
          static_cast<std::uint32_t>(bytes.size() - kFrameHeaderSize);
      bytes[4] = util::truncate_cast<std::uint8_t>(len >> 24);
      bytes[5] = util::truncate_cast<std::uint8_t>(len >> 16);
      bytes[6] = util::truncate_cast<std::uint8_t>(len >> 8);
      bytes[7] = util::truncate_cast<std::uint8_t>(len);
    }
    visit(std::span<const std::uint8_t>(bytes), iter);
  }
}

TEST(FrameFuzz, MutatedFramesNeverCrashAndRoundTrip) {
  std::size_t accepted = 0;
  for_each_mutated_frame(
      [&](std::span<const std::uint8_t> bytes, std::size_t iter) {
        FrameError error = FrameError::kNone;
        if (decode_frame(bytes, &error).has_value()) ++accepted;
        check_frame_properties(bytes, iter);
      });
  // Some mutants must survive, or the harness degenerated into a
  // header-magic test.
  EXPECT_GT(accepted, kFrameMutationIters / 50);
}

TEST(FrameFuzz, RandomBuffersNeverCrash) {
  for_each_random_frame(check_frame_properties);
}

TEST(FrameFuzz, GarbageAuthPayloadsRejectTyped) {
  // The HELLO payload is the pre-auth attack surface: random key bytes,
  // lying key lengths, embedded NULs, and oversized keys must all come back
  // as typed errors (or decode to a key the daemon then rejects) — never
  // crash or over-read.
  util::Rng rng(kFrameSeed ^ 0xau);
  for (std::size_t iter = 0; iter < kFrameAuthGarbageIters; ++iter) {
    Hello hello;
    hello.push_results = rng.chance(0.5);
    const std::size_t key_len = rng.below(kMaxApiKeyLen + 1);
    hello.api_key.resize(key_len);
    for (auto& c : hello.api_key) {
      c = static_cast<char>(rng.below(256));
    }
    std::vector<std::uint8_t> bytes = encode_frame(hello);
    // Corrupt the encoded key-length byte (after the u32 proto_version and
    // the flags byte) half the time so the declared and actual lengths
    // disagree.
    if (rng.chance(0.5) && bytes.size() > kFrameHeaderSize + 5) {
      bytes[kFrameHeaderSize + 5] =
          util::truncate_cast<std::uint8_t>(rng());
    }
    check_frame_properties(bytes, iter);
  }
}

TEST(FrameFuzz, SeedCorpusRoundTripsExactly) {
  for (const auto& message : frame_corpus()) {
    const auto bytes = encode_frame(message);
    FrameError error = FrameError::kNone;
    const auto decoded = decode_frame(bytes, &error);
    ASSERT_TRUE(decoded.has_value()) << to_string(error);
    EXPECT_TRUE(*decoded == message)
        << "frame type " << to_string(frame_type_of(message));
  }
}

// --- Wire pins: the exact bytes and verdicts of the frame codec. ------------
//
// The round-trip properties above hold for any self-consistent codec; these
// pin the codec itself, so a rewrite of frame.cpp must reproduce today's
// bytes and today's rejection reasons exactly.

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

TEST(FrameFuzz, CorpusCoversEveryMessageType) {
  std::set<std::size_t> seen;
  for (const auto& message : frame_corpus()) seen.insert(message.index());
  EXPECT_EQ(seen.size(), std::variant_size_v<Message>);
}

TEST(FrameFuzz, GoldenBytesPerFrameType) {
  // encode_frame of each frame_corpus() message, in corpus order.
  const std::vector<std::string> golden = {
      "525601010000000e00000001000864656d6f2d6b6579",
      "525601020000001c0000000300000000075bcd150f6d6561737572656d656e74"
      "2d6c6162",
      "525601030000000100",
      "52560104000000190123456789abcdef0000002a00000001020000000001c9c3"
      "80",
      "52560105000000080000000000000007",
      "5256010600000009000000000000000906",
      "5256010700000047000000000000000b0002000000000369def0000000000000"
      "002d000000000000000300070a000000000a000001010a000002020a00000303"
      "0a000004040a000005050a00000606",
      "525601080000000400000010",
      "52560109000000080000000200000005",
      "5256010a00000000",
      "5256010b00000015000000117b226163636570746564223a203230307d",
      "5256010c00000000",
      "5256010d0000001000000000000000640000000000000007",
      "5256010e0000001300000001000000080a76702d6167656e742d31",
      "5256010f0000001f00000000feedface040000000c0a010203010a090909020a"
      "0102010a010202",
      "5256010f00000013000000000000000105000000030a0405060000",
      "525601100000004500000000feedface01020a0001010a000102020100010000"
      "00000000138802010a00020100000000000004b0000000000000000960000000"
      "0000001b580000000000000003",
      "525601110000000c000000040000000000000200",
      "52560112000000080000000000000063",
  };
  const auto corpus = frame_corpus();
  ASSERT_EQ(corpus.size(), golden.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(hex(encode_frame(corpus[i])), golden[i])
        << "frame type " << to_string(frame_type_of(corpus[i]));
  }
}

TEST(FrameFuzz, MutantVerdictsArePinned) {
  // FNV-1a over every mutant's verdict: the FrameError byte, then (when it
  // decodes) the re-encoded frame. One digest per stream.
  const auto digest_of = [](auto for_each) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto fold = [&h](std::uint8_t b) {
      h ^= b;
      h *= 0x100000001b3ULL;
    };
    for_each([&](std::span<const std::uint8_t> bytes, std::size_t) {
      FrameError error = FrameError::kNone;
      const auto decoded = decode_frame(bytes, &error);
      fold(static_cast<std::uint8_t>(error));
      if (decoded.has_value()) {
        for (const std::uint8_t b : encode_frame(*decoded)) fold(b);
      }
    });
    return h;
  };
  EXPECT_EQ(digest_of([](auto visit) { for_each_mutated_frame(visit); }),
            0x884a128ef36bc663ULL);
  EXPECT_EQ(digest_of([](auto visit) { for_each_random_frame(visit); }),
            0xd0edc88a48e5b2beULL);
}

TEST(FrameFuzz, TypedErrorsMatchTheLie) {
  const auto valid = encode_frame(Poll{8});
  FrameError error = FrameError::kNone;

  // Truncated header: every prefix shorter than the fixed header.
  for (std::size_t n = 0; n < kFrameHeaderSize; ++n) {
    EXPECT_FALSE(
        decode_frame(std::span(valid).first(n), &error).has_value());
    EXPECT_EQ(error, FrameError::kTruncatedHeader) << "prefix " << n;
  }

  auto bad_magic = valid;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(decode_frame(bad_magic, &error).has_value());
  EXPECT_EQ(error, FrameError::kBadMagic);

  auto bad_version = valid;
  bad_version[2] = kProtoVersion + 1;
  EXPECT_FALSE(decode_frame(bad_version, &error).has_value());
  EXPECT_EQ(error, FrameError::kBadVersion);

  auto bad_type = valid;
  bad_type[3] = 0;
  EXPECT_FALSE(decode_frame(bad_type, &error).has_value());
  EXPECT_EQ(error, FrameError::kUnknownType);
  // First value past the last frame type.
  bad_type[3] = util::checked_cast<std::uint8_t>(
      std::variant_size_v<Message> + 1);
  EXPECT_FALSE(decode_frame(bad_type, &error).has_value());
  EXPECT_EQ(error, FrameError::kUnknownType);

  auto oversized = valid;
  const std::uint32_t huge = kMaxFramePayload + 1;
  oversized[4] = util::truncate_cast<std::uint8_t>(huge >> 24);
  oversized[5] = util::truncate_cast<std::uint8_t>(huge >> 16);
  oversized[6] = util::truncate_cast<std::uint8_t>(huge >> 8);
  oversized[7] = util::truncate_cast<std::uint8_t>(huge);
  EXPECT_FALSE(decode_frame(oversized, &error).has_value());
  EXPECT_EQ(error, FrameError::kOversizedPayload);

  // Truncated payload: header promises more bytes than the buffer holds.
  EXPECT_FALSE(decode_frame(std::span(valid).first(valid.size() - 1), &error)
                   .has_value());
  EXPECT_EQ(error, FrameError::kTruncatedPayload);

  auto trailing = valid;
  trailing.push_back(0);
  EXPECT_FALSE(decode_frame(trailing, &error).has_value());
  EXPECT_EQ(error, FrameError::kTrailingBytes);

  // A lying hop count in a RESULT payload (claims more hops than bytes).
  Result result;
  result.request_id = 1;
  auto lying = encode_frame(result);
  // hop_count is the last two bytes of the fixed Result prefix; bump it.
  REVTR_CHECK(lying.size() >= 2);
  lying[lying.size() - 1] = 0xff;
  // Re-stamp nothing else: payload length still matches the buffer, so the
  // decoder must fail on payload grounds, not length grounds.
  EXPECT_FALSE(decode_frame(lying, &error).has_value());
  EXPECT_EQ(error, FrameError::kBadPayload);
}

}  // namespace
}  // namespace revtr::server
