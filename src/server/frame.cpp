#include "server/frame.h"

#include <array>
#include <type_traits>
#include <utility>

#include "util/check.h"

namespace revtr::server {
namespace {

// A frame's type byte is its Message alternative's index + 1, so FrameType
// must list the alternatives in variant order.
static_assert(static_cast<std::size_t>(FrameType::kAgentDrain) ==
              std::variant_size_v<Message>);

// --- The two walkers. -------------------------------------------------------
//
// fields() below lists each message's wire layout once, as calls on an `Io`
// that is either a Writer (encode) or a Reader (decode). Both implement
// the same primitives, all big-endian:
//
//   u32 u64              plain integers
//   i64(v, non_negative) two's-complement i64; the Reader can demand >= 0
//   flag                 one 0/1 byte
//   flag_pair            one byte, bit 0 = first, bit 1 = second
//   enumeration(v, max)  one byte in [0, max]
//   addr / optional_addr u32 address; optional = flag, then the u32 if set
//   string(s, cap)       u8 length (<= cap), then the bytes
//   text(s)              u32 length that must equal the rest of the payload
//   list<Count>(v, cap, min_item_bytes, item)
//                        Count-wide item count (<= cap), then each item
//
// The Writer REVTR_CHECKs every cap (oversize is a programming error). The
// Reader latches bad() on any cap, range or sign violation; the caller maps
// that to kBadPayload. Over-reads are latched by util::ByteReader.

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(util::truncate_cast<std::uint8_t>(v >> 8));
    u8(util::truncate_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(util::truncate_cast<std::uint16_t>(v >> 16));
    u16(util::truncate_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(util::truncate_cast<std::uint32_t>(v >> 32));
    u32(util::truncate_cast<std::uint32_t>(v));
  }
  void i64(std::int64_t v, bool /*non_negative*/ = false) {
    u64(static_cast<std::uint64_t>(v));
  }
  void flag(bool v) { u8(v ? 1 : 0); }
  void flag_pair(bool first, bool second) {
    u8(static_cast<std::uint8_t>((first ? 1u : 0u) | (second ? 2u : 0u)));
  }
  template <class E>
  void enumeration(E v, E /*max*/) {
    u8(static_cast<std::uint8_t>(v));
  }
  void addr(net::Ipv4Addr a) { u32(a.value()); }
  void optional_addr(const std::optional<net::Ipv4Addr>& a) {
    flag(a.has_value());
    if (a.has_value()) addr(*a);
  }
  void string(const std::string& s, std::size_t cap) {
    REVTR_CHECK(s.size() <= cap);
    u8(util::checked_cast<std::uint8_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void text(const std::string& s) {
    REVTR_CHECK(s.size() <= kMaxFramePayload - 4);
    u32(util::checked_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  template <class Count = std::uint8_t, class T, class Item>
  void list(const std::vector<T>& items, std::size_t cap,
            std::size_t /*min_item_bytes*/, Item item) {
    REVTR_CHECK(items.size() <= cap);
    const auto count = util::checked_cast<Count>(items.size());
    if constexpr (sizeof(Count) == 1) {
      u8(count);
    } else {
      u16(count);
    }
    for (const T& x : items) item(*this, x);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> payload) : r_(payload) {}

  bool ok() const { return ok_ && r_.ok(); }
  bool at_end() const { return r_.at_end(); }

  void u32(std::uint32_t& v) { v = r_.u32(); }
  void u64(std::uint64_t& v) {
    const std::uint64_t hi = r_.u32();
    const std::uint64_t lo = r_.u32();
    v = (hi << 32) | lo;
  }
  void i64(std::int64_t& v, bool non_negative = false) {
    std::uint64_t raw = 0;
    u64(raw);
    v = static_cast<std::int64_t>(raw);
    if (non_negative && v < 0) bad();
  }
  void flag(bool& v) {
    const std::uint8_t raw = r_.u8();
    if (raw > 1) bad();
    v = raw != 0;
  }
  void flag_pair(bool& first, bool& second) {
    const std::uint8_t raw = r_.u8();
    if (raw > 3) bad();
    first = (raw & 1) != 0;
    second = (raw & 2) != 0;
  }
  template <class E>
  void enumeration(E& v, E max) {
    const std::uint8_t raw = r_.u8();
    if (raw > static_cast<std::uint8_t>(max)) return bad();
    v = static_cast<E>(raw);
  }
  void addr(net::Ipv4Addr& a) { a = net::Ipv4Addr(r_.u32()); }
  void optional_addr(std::optional<net::Ipv4Addr>& a) {
    bool present = false;
    flag(present);
    if (present) a = net::Ipv4Addr(r_.u32());
  }
  void string(std::string& s, std::size_t cap) {
    const std::size_t len = r_.u8();
    if (len > cap) return bad();
    const auto view = r_.bytes(len);
    s.assign(view.begin(), view.end());
  }
  void text(std::string& s) {
    const std::size_t len = r_.u32();
    if (!r_.ok() || len != r_.remaining()) return bad();
    const auto view = r_.bytes(len);
    s.assign(view.begin(), view.end());
  }
  // Reserves no more items than the remaining bytes can hold, so a lying
  // count on a short buffer cannot balloon the allocation before the
  // ByteReader latches the overrun.
  template <class Count = std::uint8_t, class T, class Item>
  void list(std::vector<T>& items, std::size_t cap,
            std::size_t min_item_bytes, Item item) {
    const std::size_t count = sizeof(Count) == 1 ? r_.u8() : r_.u16();
    if (count > cap || r_.remaining() < count * min_item_bytes) return bad();
    items.reserve(count);
    for (std::size_t i = 0; i < count && ok(); ++i) {
      T x{};
      item(*this, x);
      items.push_back(std::move(x));
    }
  }

 private:
  void bad() { ok_ = false; }

  util::ByteReader r_;
  bool ok_ = true;
};

// --- The schema: every message's fields, once, in wire order. ---------------

template <class M, class T>
inline constexpr bool kIs = std::is_same_v<std::remove_const_t<M>, T>;

template <class Io, class M>
void fields(Io& io, M& m) {
  if constexpr (kIs<M, Hello>) {
    io.u32(m.proto_version);
    io.flag(m.push_results);
    io.string(m.api_key, kMaxApiKeyLen);
  } else if constexpr (kIs<M, HelloOk>) {
    io.u32(m.tenant);
    io.i64(m.server_now_us);
    io.string(m.tenant_name, kMaxTenantNameLen);
  } else if constexpr (kIs<M, HelloErr>) {
    io.enumeration(m.reason, RejectReason::kBadRequest);
  } else if constexpr (kIs<M, Submit>) {
    io.u64(m.request_id);
    io.u32(m.dest_index);
    io.u32(m.source_index);
    io.enumeration(m.priority, Priority::kLow);
    io.i64(m.deadline_us, /*non_negative=*/true);
  } else if constexpr (kIs<M, SubmitOk>) {
    io.u64(m.request_id);
  } else if constexpr (kIs<M, SubmitErr>) {
    io.u64(m.request_id);
    io.enumeration(m.reason, RejectReason::kBadRequest);
  } else if constexpr (kIs<M, Result>) {
    io.u64(m.request_id);
    io.enumeration(m.status, core::RevtrStatus::kUnreachable);
    io.flag_pair(m.shed, m.deadline_missed);
    io.i64(m.sim_latency_us);
    io.u64(m.probes);
    io.u64(m.coalesced_probes);
    io.template list<std::uint16_t>(
        m.hops, kMaxResultHops, 5, [](auto& hop_io, auto& hop) {
          hop_io.addr(hop.addr);
          hop_io.enumeration(hop.source, core::HopSource::kSuspiciousGap);
        });
  } else if constexpr (kIs<M, Poll>) {
    io.u32(m.max_results);
  } else if constexpr (kIs<M, PollDone>) {
    io.u32(m.returned);
    io.u32(m.pending);
  } else if constexpr (kIs<M, Stats> || kIs<M, Drain>) {
    // Empty payload.
  } else if constexpr (kIs<M, StatsReply>) {
    io.text(m.json);
  } else if constexpr (kIs<M, DrainDone>) {
    io.u64(m.completed);
    io.u64(m.shed);
  } else if constexpr (kIs<M, AgentRegister>) {
    io.u32(m.proto_version);
    io.u32(m.window);
    io.string(m.name, kMaxTenantNameLen);
  } else if constexpr (kIs<M, AgentProbe>) {
    io.u64(m.ticket);
    io.enumeration(m.spec.type, probing::ProbeType::kTraceroute);
    io.u32(m.spec.from);
    io.addr(m.spec.target);
    io.optional_addr(m.spec.spoof_as);
    io.list(m.spec.prespec, kMaxAgentPrespec, 4,
            [](auto& a_io, auto& a) { a_io.addr(a); });
  } else if constexpr (kIs<M, AgentProbeResult>) {
    io.u64(m.ticket);
    io.flag(m.reply.responded);
    io.list(m.reply.slots, kMaxAgentSlots, 4,
            [](auto& a_io, auto& a) { a_io.addr(a); });
    io.list(m.reply.stamped, kMaxAgentPrespec, 1,
            [](auto& s_io, auto& stamp) { s_io.flag(stamp); });
    io.flag(m.reply.traceroute.reached);
    io.i64(m.reply.traceroute.duration_us, /*non_negative=*/true);
    io.list(m.reply.traceroute.hops, kMaxAgentTrHops, 9,
            [](auto& hop_io, auto& hop) {
              hop_io.optional_addr(hop.addr);
              hop_io.i64(hop.rtt_us, /*non_negative=*/true);
            });
    io.i64(m.reply.duration_us, /*non_negative=*/true);
    io.u64(m.reply.packets);
  } else if constexpr (kIs<M, AgentHeartbeat>) {
    io.u32(m.inflight);
    io.u64(m.executed);
  } else {
    static_assert(kIs<M, AgentDrain>);
    io.u64(m.executed);
  }
}

// A default-constructed Message holding alternative `index`.
template <std::size_t... I>
Message empty_message(std::size_t index, std::index_sequence<I...>) {
  static constexpr std::array<Message (*)(), sizeof...(I)> kMake = {
      +[]() -> Message {
        return std::variant_alternative_t<I, Message>{};
      }...};
  return kMake[index]();
}

template <class T>
std::optional<T> fail(FrameError* error, FrameError reason) {
  if (error != nullptr) *error = reason;
  return std::nullopt;
}

}  // namespace

std::string_view to_string(FrameError error) {
  switch (error) {
    case FrameError::kNone: return "none";
    case FrameError::kTruncatedHeader: return "truncated-header";
    case FrameError::kBadMagic: return "bad-magic";
    case FrameError::kBadVersion: return "bad-version";
    case FrameError::kUnknownType: return "unknown-type";
    case FrameError::kOversizedPayload: return "oversized-payload";
    case FrameError::kTruncatedPayload: return "truncated-payload";
    case FrameError::kBadPayload: return "bad-payload";
    case FrameError::kTrailingBytes: return "trailing-bytes";
  }
  return "unknown";
}

std::string_view to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kHelloOk: return "HELLO_OK";
    case FrameType::kHelloErr: return "HELLO_ERR";
    case FrameType::kSubmit: return "SUBMIT";
    case FrameType::kSubmitOk: return "SUBMIT_OK";
    case FrameType::kSubmitErr: return "SUBMIT_ERR";
    case FrameType::kResult: return "RESULT";
    case FrameType::kPoll: return "POLL";
    case FrameType::kPollDone: return "POLL_DONE";
    case FrameType::kStats: return "STATS";
    case FrameType::kStatsReply: return "STATS_REPLY";
    case FrameType::kDrain: return "DRAIN";
    case FrameType::kDrainDone: return "DRAIN_DONE";
    case FrameType::kAgentRegister: return "AGENT_REGISTER";
    case FrameType::kAgentProbe: return "AGENT_PROBE";
    case FrameType::kAgentProbeResult: return "AGENT_PROBE_RESULT";
    case FrameType::kAgentHeartbeat: return "AGENT_HEARTBEAT";
    case FrameType::kAgentDrain: return "AGENT_DRAIN";
  }
  return "unknown";
}

std::string_view to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kBadApiKey: return "bad-api-key";
    case RejectReason::kNotAuthenticated: return "not-authenticated";
    case RejectReason::kDraining: return "draining";
    case RejectReason::kRateLimited: return "rate-limited";
    case RejectReason::kQuotaExhausted: return "quota-exhausted";
    case RejectReason::kProbeBudgetExhausted: return "probe-budget-exhausted";
    case RejectReason::kQueueFull: return "queue-full";
    case RejectReason::kBackpressure: return "backpressure";
    case RejectReason::kDeadlineExpired: return "deadline-expired";
    case RejectReason::kDeadlineUnmeetable: return "deadline-unmeetable";
    case RejectReason::kBadRequest: return "bad-request";
  }
  return "unknown";
}

FrameType frame_type_of(const Message& message) {
  return static_cast<FrameType>(message.index() + 1);
}

std::vector<std::uint8_t> encode_frame(const Message& message) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderSize + 64);
  Writer writer(out);
  writer.u16(kFrameMagic);
  writer.u8(kProtoVersion);
  writer.u8(static_cast<std::uint8_t>(frame_type_of(message)));
  writer.u32(0);  // Placeholder; patched below.
  std::visit([&writer](const auto& msg) { fields(writer, msg); }, message);
  const std::size_t payload_len = out.size() - kFrameHeaderSize;
  REVTR_CHECK(payload_len <= kMaxFramePayload);
  out[4] = util::truncate_cast<std::uint8_t>(payload_len >> 24);
  out[5] = util::truncate_cast<std::uint8_t>(payload_len >> 16);
  out[6] = util::truncate_cast<std::uint8_t>(payload_len >> 8);
  out[7] = util::truncate_cast<std::uint8_t>(payload_len);
  return out;
}

std::optional<FrameHeader> decode_frame_header(
    std::span<const std::uint8_t> bytes, FrameError* error) {
  if (error != nullptr) *error = FrameError::kNone;
  util::ByteReader reader(bytes);
  const std::uint16_t magic = reader.u16();
  const std::uint8_t version = reader.u8();
  const std::uint8_t type = reader.u8();
  const std::uint32_t payload_len = reader.u32();
  if (!reader.ok())
    return fail<FrameHeader>(error, FrameError::kTruncatedHeader);
  if (magic != kFrameMagic)
    return fail<FrameHeader>(error, FrameError::kBadMagic);
  if (version != kProtoVersion)
    return fail<FrameHeader>(error, FrameError::kBadVersion);
  if (type < 1 || type > std::variant_size_v<Message>)
    return fail<FrameHeader>(error, FrameError::kUnknownType);
  if (payload_len > kMaxFramePayload)
    return fail<FrameHeader>(error, FrameError::kOversizedPayload);
  return FrameHeader{static_cast<FrameType>(type), payload_len};
}

std::optional<Message> decode_payload(FrameType type,
                                      std::span<const std::uint8_t> payload,
                                      FrameError* error) {
  if (error != nullptr) *error = FrameError::kNone;
  const std::size_t index = static_cast<std::size_t>(type) - 1;
  if (index >= std::variant_size_v<Message>)
    return fail<Message>(error, FrameError::kUnknownType);
  Message message = empty_message(
      index, std::make_index_sequence<std::variant_size_v<Message>>{});
  Reader reader(payload);
  std::visit([&reader](auto& msg) { fields(reader, msg); }, message);
  if (!reader.ok()) return fail<Message>(error, FrameError::kBadPayload);
  if (!reader.at_end()) return fail<Message>(error, FrameError::kTrailingBytes);
  return message;
}

std::optional<Message> decode_frame(std::span<const std::uint8_t> bytes,
                                    FrameError* error) {
  const auto header = decode_frame_header(bytes, error);
  if (!header.has_value()) return std::nullopt;
  if (bytes.size() < kFrameHeaderSize + header->payload_len)
    return fail<Message>(error, FrameError::kTruncatedPayload);
  if (bytes.size() > kFrameHeaderSize + header->payload_len)
    return fail<Message>(error, FrameError::kTrailingBytes);
  return decode_payload(header->type,
                        bytes.subspan(kFrameHeaderSize, header->payload_len),
                        error);
}

void FrameReader::append(std::span<const std::uint8_t> bytes) {
  // Drop the frames already popped, so the buffer only ever holds the
  // unconsumed tail of the stream.
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
  pos_ = 0;
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<Message> FrameReader::next(FrameError* error) {
  if (error != nullptr) *error = FrameError::kNone;
  const auto avail = std::span<const std::uint8_t>(buf_).subspan(pos_);
  if (avail.size() < kFrameHeaderSize) return std::nullopt;
  const auto header = decode_frame_header(avail, error);
  if (!header.has_value()) return std::nullopt;
  const std::size_t total = kFrameHeaderSize + header->payload_len;
  if (avail.size() < total) return std::nullopt;
  pos_ += total;
  return decode_payload(header->type,
                        avail.subspan(kFrameHeaderSize, header->payload_len),
                        error);
}

}  // namespace revtr::server
