// The oracle: every result a run gets back is compared with a reference
// measurement of the same (source, destination) pair made by
// RevtrEngine::measure() with the engine caches off, on a world rebuilt
// through the same public set-up calls and seed as the program's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/revtr.h"
#include "server/frame.h"
#include "workload.h"

namespace perfbench {

// One completed result as the program returned it.
struct Observed {
  Request request;
  revtr::core::RevtrStatus status = revtr::core::RevtrStatus::kUnreachable;
  std::vector<revtr::server::ResultHop> hops;
  std::uint64_t probes = 0;
  std::int64_t sim_latency_us = 0;
};

struct Verdict {
  std::size_t checked = 0;
  std::size_t distinct_pairs = 0;
  std::size_t wrong = 0;
  std::size_t wrong_status = 0;
  std::size_t wrong_address = 0;      // Status equal, some hop address not.
  std::size_t wrong_provenance = 0;   // Only hop sources differ.
};

// Computes the reference of every distinct pair in `observed` on `threads`
// threads and counts the results that differ from it. Never aborts: a
// mismatch is counted, not raised.
Verdict check_against_oracle(const Workload& workload, const World& world,
                             const std::vector<Observed>& observed,
                             std::size_t threads);

}  // namespace perfbench
