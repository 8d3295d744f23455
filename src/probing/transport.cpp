#include "probing/transport.h"

#include <utility>

namespace revtr::probing {

ProbeReply execute_spec(Prober& prober, const ProbeSpec& spec) {
  ProbeReply reply;
  switch (spec.type) {
    case ProbeType::kPing: {
      const auto result = prober.ping(spec.from, spec.target);
      reply.responded = result.responded;
      reply.duration_us = result.duration_us;
      reply.packets = 1;
      break;
    }
    case ProbeType::kRecordRoute:
    case ProbeType::kSpoofedRecordRoute: {
      const auto result = prober.rr_ping(spec.from, spec.target, spec.spoof_as);
      reply.responded = result.responded;
      reply.slots = result.slots;
      reply.duration_us = result.duration_us;
      reply.packets = 1;
      break;
    }
    case ProbeType::kTimestamp:
    case ProbeType::kSpoofedTimestamp: {
      const auto result =
          prober.ts_ping(spec.from, spec.target, spec.prespec, spec.spoof_as);
      reply.responded = result.responded;
      reply.stamped = result.stamped;
      reply.duration_us = result.duration_us;
      reply.packets = 1;
      break;
    }
    case ProbeType::kTraceroute: {
      // The symmetry step reads only what the targeted walk decides, so
      // the spec path never pays for the full walk (DESIGN.md §16).
      const auto sent = prober.counters().traceroute_packets;
      auto result = prober.targeted_trace(spec.from, spec.target);
      reply.responded = result.reached;
      reply.duration_us = result.duration_us;
      // One wire packet per TTL probed: not hops.size(), since the walk
      // skips TTLs and may probe one past the target.
      reply.packets = prober.counters().traceroute_packets - sent;
      reply.traceroute = std::move(result);
      break;
    }
  }
  return reply;
}

void ProbeTransport::execute_batch(std::span<const RrBatchItem> items,
                                   std::vector<RrProbeResult>& out) {
  out.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const RrBatchItem& item = items[i];
    ProbeReply reply = execute(ProbeSpec{
        item.spoof_as ? ProbeType::kSpoofedRecordRoute
                      : ProbeType::kRecordRoute,
        item.from, item.target, item.spoof_as, {}});
    out[i] = RrProbeResult{reply.responded, std::move(reply.slots),
                           reply.duration_us};
  }
}

}  // namespace revtr::probing
