// The traced twin: a single-threaded runner that feeds a workload's
// generated requests through the same public layer calls the daemon's
// worker (or ParallelCampaignDriver's pump loop) makes, with a span around
// each call:
//
//   frame      encode_frame / decode_payload of SUBMIT, RESULT and, with
//              agents, AGENT_PROBE / AGENT_PROBE_RESULT
//   admission  AdmissionController::decide
//   core       RevtrEngine::start_request, RequestTask::advance / supply
//   sched      ProbeScheduler submit / pump / collect_ready, and with agents
//              next_assignments / deliver_assignment / run_offline_jobs
//   probing    every ProbeTransport::execute / execute_batch, through a
//              timing decorator around LocalProbeTransport
//
// Spans (name, start, end, parent, request) are kept in memory and written
// to the work directory when the run ends. The same runner also runs once
// with tracing off over the same requests; the wall-time difference is the
// tracing overhead. End-to-end numbers never come from here.
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "core/request_task.h"
#include "probing/prober.h"
#include "probing/transport.h"
#include "runs.h"
#include "sched/scheduler.h"
#include "server/admission.h"
#include "server/frame.h"
#include "sim/network.h"
#include "util/rng.h"

namespace perfbench {

namespace rt = revtr;

namespace {

struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t request = 0;  // Stream index + 1; 0 = not one request's.
};

// Span recorder. Off, every call is one branch.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 20);
  }
  bool on() const noexcept { return on_; }
  std::int32_t begin(const char* name, std::uint32_t request) {
    if (!on_) return -1;
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0,
                          stack_.empty() ? -1 : stack_.back(), request});
    stack_.push_back(index);
    return index;
  }
  void end(std::int32_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint32_t request = 0)
      : tracer_(tracer), index_(tracer.begin(name, request)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

const char* probe_span_name(rt::probing::ProbeType type) {
  switch (type) {
    case rt::probing::ProbeType::kPing:
      return "probing.ping";
    case rt::probing::ProbeType::kRecordRoute:
    case rt::probing::ProbeType::kSpoofedRecordRoute:
      return "probing.rr";
    case rt::probing::ProbeType::kTimestamp:
    case rt::probing::ProbeType::kSpoofedTimestamp:
      return "probing.ts";
    case rt::probing::ProbeType::kTraceroute:
      return "probing.traceroute";
  }
  return "probing.other";
}

// The timing decorator the scheduler (or an agent) issues through.
class TimingTransport final : public rt::probing::ProbeTransport {
 public:
  TimingTransport(rt::probing::ProbeTransport& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  rt::probing::ProbeReply execute(const rt::probing::ProbeSpec& spec) override {
    const Scope scope(tracer_, probe_span_name(spec.type));
    return inner_.execute(spec);
  }

  void execute_batch(std::span<const rt::probing::RrBatchItem> items,
                     std::vector<rt::probing::RrProbeResult>& out) override {
    const Scope scope(tracer_, "probing.spoofed_rr_batch");
    batch_items_ += items.size();
    ++batches_;
    inner_.execute_batch(items, out);
  }

  std::uint64_t batches() const noexcept { return batches_; }
  std::uint64_t batch_items() const noexcept { return batch_items_; }

 private:
  rt::probing::ProbeTransport& inner_;
  Tracer& tracer_;
  std::uint64_t batches_ = 0;
  std::uint64_t batch_items_ = 0;
};

// Encodes one message as a frame and decodes it back, as the two ends of a
// connection would.
template <typename T>
T round_trip(const rt::server::Message& message) {
  const auto frame = rt::server::encode_frame(message);
  auto decoded = rt::server::decode_frame(frame);
  REVTR_CHECK(decoded.has_value());
  return std::get<T>(*std::move(decoded));
}

// Everything one pass of the runner produced.
struct Pass {
  double wall_s = 0;
  std::uint64_t rounds = 0;  // Demand sets submitted.
  std::uint64_t result_bytes = 0;
  rt::probing::ProbeCounters probes;
  rt::sched::SchedulerStats sched;
  std::uint64_t spoof_batches = 0;
  std::uint64_t spoof_batch_items = 0;
  double rr_cache_replays = 0;
  std::vector<Span> spans;
};

// One runner pass over stream[first, first + count), after running the
// `warm` requests before `first` untraced.
Pass run_pass(const Workload& workload, const World& world,
              const std::vector<Request>& stream, std::size_t warm,
              std::size_t count, bool traced) {
  const rt::eval::Lab& lab = *world.lab;
  const std::uint64_t net_seed =
      rt::util::mix_hash(workload.lab_seed, 0x6e7ULL);
  const bool serving = workload.serving();
  const bool remote = workload.agents > 0;
  // Daemon workers multiplex up to 16 requests each; ParallelCampaignDriver
  // admits a whole run() batch at once.
  const std::size_t window =
      serving ? 16 * workload.workers : workload.campaign_batch;

  rt::obs::MetricsRegistry registry;
  const rt::core::EngineMetrics engine_metrics(registry);
  rt::sim::Network network(lab.topo, lab.plane, net_seed);
  rt::probing::Prober prober(network);
  rt::core::RevtrEngine engine(prober, lab.topo, world.lab->atlas,
                               world.lab->ingress, lab.ip2as,
                               lab.relationships,
                               rt::core::EngineConfig::revtr2(), net_seed);
  engine.set_shared_caches(std::make_shared<rt::core::EngineCaches>());
  engine.set_metrics(&engine_metrics);
  rt::sched::ProbeScheduler scheduler;

  // Agent side (remote mode): its own prober over the same world.
  rt::sim::Network agent_network(lab.topo, lab.plane, net_seed);
  rt::probing::Prober agent_prober(agent_network);
  rt::probing::LocalProbeTransport local(remote ? agent_prober : prober);

  rt::server::AdmissionConfig admission_config;
  admission_config.workers = workload.workers;
  rt::server::AdmissionController admission(admission_config);
  admission.add_tenant(1, rt::server::TokenBucketOptions{1e9, 1e9});

  Tracer tracer(false);
  TimingTransport timed(local, tracer);
  std::vector<rt::sched::ProbeScheduler::AgentId> agents;
  for (std::size_t a = 0; a < workload.agents; ++a) {
    agents.push_back(scheduler.attach_agent(16, 0));
  }

  struct Active {
    rt::util::SimClock clock;
    rt::util::Rng rng;
    std::unique_ptr<rt::core::RequestTask> task;
    explicit Active(std::uint64_t seed) : rng(seed) {}
  };
  std::unordered_map<std::uint64_t, Active> active;
  const auto& hosts = lab.topo.probe_hosts();
  Pass pass;

  const auto finalize = [&](std::uint64_t index, Active& request) {
    const auto tag = static_cast<std::uint32_t>(index + 1);
    const rt::core::ReverseTraceroute measured = request.task->take_result();
    if (serving) {
      rt::server::Result result;
      result.request_id = index;
      result.status = measured.status;
      result.sim_latency_us = measured.span.duration();
      result.probes = measured.probes.total();
      result.coalesced_probes = measured.coalesced_probes;
      for (const auto& hop : measured.hops) {
        result.hops.push_back(rt::server::ResultHop{hop.addr, hop.source});
      }
      std::vector<std::uint8_t> frame;
      {
        const Scope s(tracer, "frame.result_encode", tag);
        frame = rt::server::encode_frame(result);
      }
      {
        const Scope s(tracer, "frame.result_decode", tag);
        REVTR_CHECK(rt::server::decode_frame(frame).has_value());
      }
      pass.result_bytes += frame.size();
    }
    pass.probes += measured.probes;
  };

  // Admits stream[index]: SUBMIT over the wire codec, admission, start.
  const auto admit = [&](std::uint64_t index) {
    const auto tag = static_cast<std::uint32_t>(index + 1);
    const Request& r = stream[index];
    if (serving) {
      rt::server::Submit submit;
      submit.request_id = index;
      submit.dest_index = r.dest_index;
      submit.source_index = r.source_index;
      std::vector<std::uint8_t> frame;
      {
        const Scope s(tracer, "frame.submit_encode", tag);
        frame = rt::server::encode_frame(submit);
      }
      {
        const Scope s(tracer, "frame.submit_decode", tag);
        REVTR_CHECK(rt::server::decode_frame(frame).has_value());
      }
      rt::server::AdmissionLoad load;
      load.inflight = active.size();
      load.sched_backlog = scheduler.backlog();
      const Scope s(tracer, "admission.decide", tag);
      REVTR_CHECK(!admission.decide(1, 0, now_ns() / 1000, load).has_value());
    }
    auto [it, inserted] = active.try_emplace(
        index, rt::util::mix_hash(workload.lab_seed, index, 0xca3aULL));
    REVTR_CHECK(inserted);
    Active& request = it->second;
    {
      const Scope s(tracer, "core.start_request", tag);
      request.task = engine.start_request(hosts[r.dest_index],
                                          world.sources[r.source_index],
                                          request.clock, request.rng);
    }
    std::span<const rt::sched::ProbeDemand> demands;
    {
      const Scope s(tracer, "core.advance", tag);
      demands = request.task->advance();
    }
    if (request.task->done()) {
      finalize(index, request);
      active.erase(it);
      return;
    }
    const Scope s(tracer, "sched.submit", tag);
    scheduler.submit(index, 0, {demands.begin(), demands.end()});
    ++pass.rounds;
  };

  // Agent dispatch round: the daemon's dispatch_to_agents, with each
  // assignment crossing the agent frames and executing agent-side.
  const auto dispatch = [&] {
    {
      const Scope s(tracer, "sched.run_offline_jobs");
      scheduler.run_offline_jobs();
    }
    for (const auto agent : agents) {
      std::vector<rt::sched::ProbeScheduler::Assignment> assignments;
      {
        const Scope s(tracer, "sched.next_assignments");
        assignments = scheduler.next_assignments(agent);
      }
      for (const auto& assignment : assignments) {
        rt::server::AgentProbe probe;
        {
          const Scope s(tracer, "frame.agent_probe");
          probe = round_trip<rt::server::AgentProbe>(
              rt::server::AgentProbe{assignment.ticket, assignment.spec});
        }
        rt::server::AgentProbeResult reply;
        reply.ticket = probe.ticket;
        reply.reply = timed.execute(probe.spec);
        {
          const Scope s(tracer, "frame.agent_result");
          reply = round_trip<rt::server::AgentProbeResult>(reply);
        }
        const Scope s(tracer, "sched.deliver_assignment");
        REVTR_CHECK(scheduler.deliver_assignment(agent, reply.ticket,
                                                 reply.reply));
      }
    }
  };

  // The measured part of the pass.
  const auto drive = [&](std::size_t begin, std::size_t end) {
    std::size_t next = begin;
    while (next < end || !active.empty()) {
      // Serving: keep the window full. Campaign: admit one run() batch once
      // the previous one drained.
      if (serving || active.empty()) {
        while (next < end && active.size() < window) admit(next++);
      }
      if (active.empty()) continue;
      if (remote) {
        dispatch();
      } else {
        const Scope s(tracer, "sched.pump");
        scheduler.pump(tracer.on() ? static_cast<rt::probing::ProbeTransport&>(
                                         timed)
                                   : local);
      }
      std::vector<rt::sched::ProbeScheduler::Ready> ready;
      {
        const Scope s(tracer, "sched.collect_ready");
        ready = scheduler.collect_ready(0);
      }
      for (auto& resolved : ready) {
        const auto tag = static_cast<std::uint32_t>(resolved.task + 1);
        const auto it = active.find(resolved.task);
        REVTR_CHECK(it != active.end());
        Active& request = it->second;
        {
          const Scope s(tracer, "core.supply", tag);
          request.task->supply(resolved.outcomes);
        }
        std::span<const rt::sched::ProbeDemand> demands;
        {
          const Scope s(tracer, "core.advance", tag);
          demands = request.task->advance();
        }
        if (request.task->done()) {
          finalize(resolved.task, request);
          active.erase(it);
          continue;
        }
        const Scope s(tracer, "sched.submit", tag);
        scheduler.submit(resolved.task, 0, {demands.begin(), demands.end()});
        ++pass.rounds;
      }
    }
  };

  drive(0, warm);  // Untraced warm-up (hot's caches).
  pass = Pass{};
  const double replays_before = static_cast<double>(
      engine_metrics.rr_cache_replay->total());
  const std::uint64_t batches_before = timed.batches();
  const std::uint64_t items_before = timed.batch_items();

  tracer = Tracer(traced);
  const std::int64_t t0 = now_ns();
  drive(warm, warm + count);
  pass.wall_s = seconds_since(t0);
  pass.sched = scheduler.stats();
  pass.spoof_batches = timed.batches() - batches_before;
  pass.spoof_batch_items = timed.batch_items() - items_before;
  pass.rr_cache_replays =
      static_cast<double>(engine_metrics.rr_cache_replay->total()) -
      replays_before;
  pass.spans = tracer.spans();
  return pass;
}

}  // namespace

void run_twin(const Workload& workload, const World& world,
              const std::vector<Request>& stream, std::size_t warm,
              std::size_t count, const RunOptions& options, Report& report) {
  // Untraced and traced passes alternate, twice; the overhead compares the
  // faster pass of each kind, which discounts one-off host noise.
  double plain_s = run_pass(workload, world, stream, warm, count, false).wall_s;
  double traced_s = run_pass(workload, world, stream, warm, count, true).wall_s;
  plain_s = std::min(
      plain_s, run_pass(workload, world, stream, warm, count, false).wall_s);
  const Pass pass = run_pass(workload, world, stream, warm, count, true);
  traced_s = std::min(traced_s, pass.wall_s);
  const double n = static_cast<double>(std::max<std::size_t>(count, 1));

  // Per-name totals: calls, duration, self time (duration minus children).
  struct Totals {
    std::uint64_t calls = 0;
    double ns = 0;
    double self_ns = 0;
  };
  std::map<std::string, Totals> by_name;
  std::vector<double> child_ns(pass.spans.size(), 0.0);
  for (const Span& s : pass.spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  double attributed_ns = 0;
  std::map<std::string, double> layer_self_ns;
  for (std::size_t i = 0; i < pass.spans.size(); ++i) {
    const Span& s = pass.spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    Totals& t = by_name[s.name];
    ++t.calls;
    t.ns += dur;
    t.self_ns += dur - child_ns[i];
    attributed_ns += dur - child_ns[i];
    const std::string name = s.name;
    layer_self_ns[name.substr(0, name.find('.'))] += dur - child_ns[i];
  }
  const auto mean_ns = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() || it->second.calls == 0
               ? 0.0
               : it->second.ns / static_cast<double>(it->second.calls);
  };
  const auto total_ns = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.ns;
  };
  const auto self_ns = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.self_ns;
  };

  const double wall_ns = pass.wall_s * 1e9;
  report.set("twin.wall_s", pass.wall_s, "s");
  report.set("twin.unattributed_share",
             wall_ns > 0 ? (wall_ns - attributed_ns) / wall_ns : 0, "ratio");
  report.set("twin.overhead_share",
             plain_s > 0 ? traced_s / plain_s - 1 : 0, "ratio");

  report.set("frame.submit_encode_ns", mean_ns("frame.submit_encode"), "ns");
  report.set("frame.result_decode_ns", mean_ns("frame.result_decode"), "ns");
  report.set("frame.result_bytes",
             static_cast<double>(pass.result_bytes) / n, "bytes");
  report.set("frame.agent_probe_ns", mean_ns("frame.agent_probe"), "ns");
  report.set("frame.agent_result_ns", mean_ns("frame.agent_result"), "ns");
  report.set("admission.decide_ns", mean_ns("admission.decide"), "ns");

  report.set("core.self_us_per_request",
             (self_ns("core.start_request") + self_ns("core.advance") +
              self_ns("core.supply")) * 1e-3 / n,
             "us");
  report.set("core.rounds_per_request", static_cast<double>(pass.rounds) / n,
             "count");
  report.set("core.rr_cache_replays_per_request", pass.rr_cache_replays / n,
             "count");

  report.set("sched.pump_self_us_per_request",
             (self_ns("sched.pump") + self_ns("sched.run_offline_jobs") +
              self_ns("sched.next_assignments") +
              self_ns("sched.deliver_assignment")) * 1e-3 / n,
             "us");
  report.set("sched.submit_us_per_request", total_ns("sched.submit") * 1e-3 / n,
             "us");
  report.set("sched.collect_us_per_request",
             total_ns("sched.collect_ready") * 1e-3 / n, "us");
  report.set("sched.spoof_batch_fill",
             pass.spoof_batches == 0
                 ? 0.0
                 : static_cast<double>(pass.spoof_batch_items) /
                       static_cast<double>(pass.spoof_batches *
                                           rt::sched::SchedOptions{}
                                               .spoof_batch_size),
             "ratio");

  report.set("probing.execute_us.rr", mean_ns("probing.rr") * 1e-3, "us");
  report.set("probing.execute_us.spoofed_rr_batch",
             mean_ns("probing.spoofed_rr_batch") * 1e-3, "us");
  report.set("probing.execute_us.ping", mean_ns("probing.ping") * 1e-3, "us");
  report.set("probing.execute_us.ts", mean_ns("probing.ts") * 1e-3, "us");
  report.set("probing.execute_us.traceroute",
             mean_ns("probing.traceroute") * 1e-3, "us");
  report.set("probing.busy_share",
             wall_ns > 0 ? layer_self_ns["probing"] / wall_ns : 0, "ratio");
  const auto per = [&](std::uint64_t v) { return static_cast<double>(v) / n; };
  report.set("probing.probes_per_request.ping", per(pass.probes.ping), "count");
  report.set("probing.probes_per_request.rr", per(pass.probes.rr), "count");
  report.set("probing.probes_per_request.spoofed_rr",
             per(pass.probes.spoofed_rr), "count");
  report.set("probing.probes_per_request.ts",
             per(pass.probes.ts + pass.probes.spoofed_ts), "count");
  report.set("probing.probes_per_request.traceroute",
             per(pass.probes.traceroute_packets), "count");

  report.set("eval.lab_build_s", world.lab_build_s, "s");
  report.set("vpselect.survey_s", world.survey_s, "s");
  report.set("atlas.bootstrap_s", world.bootstrap_s, "s");

  rt::util::Json twin = rt::util::Json::object();
  twin["requests"] = static_cast<std::uint64_t>(count);
  twin["untraced_wall_s"] = plain_s;
  twin["traced_wall_s"] = traced_s;
  twin["spans"] = static_cast<std::uint64_t>(pass.spans.size());
  rt::util::Json layers = rt::util::Json::object();
  for (const auto& [layer, ns] : layer_self_ns) layers[layer] = ns * 1e-9;
  twin["layer_self_s"] = std::move(layers);
  twin["sched_coalesced"] = pass.sched.coalesced;
  twin["sched_demanded"] = pass.sched.demanded;
  twin["sched_throttled"] = pass.sched.throttled;
  report.record["twin"] = std::move(twin);
  // Layer counters the campaign has no daemon run for.
  if (!workload.serving()) {
    report.set("sched.coalesced_share",
               static_cast<double>(pass.sched.coalesced) /
                   static_cast<double>(std::max<std::uint64_t>(
                       pass.sched.demanded, 1)),
               "ratio");
    report.set("sched.throttled", static_cast<double>(pass.sched.throttled),
               "count");
  }

  // The span file: one line per span, in start order within each request.
  const std::string path = options.workdir + "/spans-" + workload.name +
                           "-seed" + std::to_string(options.seed) + ".tsv";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < pass.spans.size(); ++i) {
      const Span& s = pass.spans[i];
      std::fprintf(f, "%zu\t%d\t%u\t%s\t%lld\t%lld\n", i, s.parent, s.request,
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    std::fclose(f);
    report.record["span_file"] = path;
  }
}

}  // namespace perfbench
