// The serving workloads: hit_small, hit_large and compile_cold drive an
// in-process netd::Server over the loopback interface from closed-loop
// netd::Client connections in this process.
#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aapc/common/rng.hpp"
#include "aapc/core/decompose.hpp"
#include "aapc/core/hierarchical.hpp"
#include "aapc/core/schedule_io.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/program.hpp"
#include "aapc/netd/client.hpp"
#include "aapc/netd/server.hpp"
#include "aapc/netd/wire.hpp"
#include "aapc/service/canonical.hpp"
#include "aapc/service/service.hpp"
#include "aapc/sync/sync_plan.hpp"
#include "aapc/topology/generators.hpp"
#include "aapc/topology/io.hpp"
#include "examples/workload.hpp"
#include "perfbench/support.hpp"

namespace perfbench {
namespace {

using namespace aapc;

/// Thread and cache shape of one serving workload. Busy threads (client
/// threads + event loop + dispatcher) stay within 4 cores; the acceptor
/// and, on the hit workloads, the compiler worker sit idle.
struct ServingSpec {
  int connections = 1;
  std::size_t cache_capacity = 256;
  std::size_t cache_shards = 8;
  /// Distinct inputs generated per seed.
  std::size_t inputs = 0;
  /// Operations each traced replay window runs.
  int traced_ops = 0;
  /// Quantile reported as tail_ms; tens of samples lie beyond it in a
  /// 30 s run.
  double tail_quantile = 0.90;
};

constexpr int kEventLoops = 1;
constexpr int kDispatchThreads = 1;
constexpr int kServerShards = 1;
constexpr int kCompilerThreads = 1;
/// compile_cold: the server's cache holds this many entries, and the
/// input cycle is longer, so every timed request misses and evicts.
constexpr std::size_t kColdCapacity = 8;
constexpr std::size_t kColdCycle = 32;
/// compile_cold set-up compiles this many inputs: it fills the cache,
/// then evicts a few times, so the steady state's extra entry in flight
/// and its relabeled copy are already in the peak before timing.
constexpr std::size_t kColdWarmup = kColdCapacity + 4;
constexpr std::int32_t kColdMachines = 256;
constexpr const char* kTenant = "perfbench";

ServingSpec spec_for(const std::string& workload) {
  ServingSpec spec;
  if (workload == "hit_small") {
    spec.connections = 2;
    spec.inputs = 1024;
    spec.traced_ops = 2000;
  } else if (workload == "hit_large") {
    spec.inputs = 16;
    spec.traced_ops = 40;
  } else if (workload == "compile_cold") {
    spec.cache_capacity = kColdCapacity;
    spec.cache_shards = 1;  // one exact LRU, so the cycle always misses
    spec.inputs = kColdCycle;
    spec.traced_ops = 8;
    spec.tail_quantile = 0.75;  // ~70 of ~290 requests lie beyond it
  } else {
    throw std::invalid_argument("not a serving workload: " + workload);
  }
  return spec;
}

service::ServiceOptions service_options(const ServingSpec& spec) {
  service::ServiceOptions options;
  options.cache_capacity = spec.cache_capacity;
  options.cache_shards = spec.cache_shards;
  options.compiler_threads = kCompilerThreads;
  return options;
}

/// Digest of an answer: schedule JSON and to_canonical, by hash and size.
struct AnswerDigest {
  std::uint64_t json_hash = 0;
  std::size_t json_size = 0;
  std::uint64_t perm_hash = 0;
  std::size_t perm_size = 0;

  AnswerDigest() = default;
  AnswerDigest(const std::string& json, const std::vector<topology::Rank>& perm)
      : json_hash(fnv1a(json.data(), json.size())),
        json_size(json.size()),
        perm_hash(fnv1a(perm.data(), perm.size() * sizeof(topology::Rank))),
        perm_size(perm.size()) {}
};

/// One generated request and what its answer must be.
struct Request {
  topology::Topology topo;
  /// docs/FORMATS.md §1 text: exactly what the server receives.
  std::string text;
  /// hit_*: digest of the in-process ScheduleService answer for `text`.
  AnswerDigest expected;
};

std::vector<Request> make_requests(const std::string& workload,
                                   const ServingSpec& spec,
                                   std::uint64_t seed) {
  std::vector<topology::Topology> topos;
  Rng rng(mix_seed(seed, 2));
  if (workload == "hit_small") {
    // The examples' tenant pool: paper (c), (b), Figure 1, then random
    // trees of at most 24 machines; zipfian popularity; every request
    // under a fresh rank relabeling.
    const std::vector<topology::Topology> pool =
        examples::make_tenant_pool(16, mix_seed(seed, 1));
    const examples::ZipfSampler zipf(pool.size(), 1.1);
    for (std::size_t i = 0; i < spec.inputs; ++i) {
      topos.push_back(examples::shuffled_copy(pool[zipf.sample(rng)], rng));
    }
  } else if (workload == "hit_large") {
    const topology::Topology fat_tree = topology::make_fat_tree(4, 4, 16);
    for (std::size_t i = 0; i < spec.inputs; ++i) {
      topos.push_back(examples::shuffled_copy(fat_tree, rng));
    }
  } else {
    topology::RandomLanOptions lan;
    lan.switches = 16;
    lan.machines = kColdMachines;
    for (std::size_t i = 0; i < spec.inputs; ++i) {
      topos.push_back(topology::make_random_lan(rng, lan));
    }
  }
  std::vector<Request> requests;
  requests.reserve(topos.size());
  for (topology::Topology& topo : topos) {
    Request request;
    request.text = topology::serialize_topology(topo);
    request.topo = std::move(topo);
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Everything a run builds before its first timed operation.
struct Setup {
  std::vector<Request> requests;
  /// hit_*, traced replay only: the in-process service that produced the
  /// expected answers, called on warm keys. Untimed runs destroy it
  /// before the server starts, so peak RSS is the server's and clients'.
  std::unique_ptr<service::ScheduleService> reference;
  std::unique_ptr<netd::Server> server;
  std::vector<std::unique_ptr<netd::Client>> clients;
  /// compile_cold: RSS growth per cached entry while filling the cache.
  double entry_rss_mb = 0;
  /// compile_cold: the next cycle position after set-up.
  std::size_t next_input = 0;
};

std::unique_ptr<Setup> build_setup(const std::string& workload,
                                   const ServingSpec& spec, std::uint64_t seed,
                                   bool keep_reference) {
  auto setup = std::make_unique<Setup>();
  setup->requests = make_requests(workload, spec, seed);
  const bool hits = workload != "compile_cold";
  if (hits) {
    auto reference =
        std::make_unique<service::ScheduleService>(service_options(spec));
    for (Request& request : setup->requests) {
      const topology::Topology topo = topology::parse_topology(request.text);
      const service::CompiledRoutine routine =
          reference->compile(topo, kMessageBytes);
      request.expected = AnswerDigest(
          core::schedule_to_json(routine.schedule, topo.machine_count()),
          routine.to_canonical);
    }
    if (keep_reference) setup->reference = std::move(reference);
  }

  netd::ServerOptions options;
  options.event_loops = kEventLoops;
  options.dispatch_threads = kDispatchThreads;
  options.shards = kServerShards;
  options.service = service_options(spec);
  setup->server = std::make_unique<netd::Server>(options);
  setup->server->start();
  for (int c = 0; c < spec.connections; ++c) {
    setup->clients.push_back(
        std::make_unique<netd::Client>("127.0.0.1", setup->server->port()));
  }

  // Warm-up: hit_* sends every input once, so each canonical key is
  // cached; compile_cold fills the cache and runs a few evictions, so
  // RSS is at its plateau when timing starts.
  netd::Client& client = *setup->clients.front();
  if (hits) {
    for (const Request& request : setup->requests) {
      client.compile_serialized(request.text, kMessageBytes, kTenant);
    }
  } else {
    const double before = current_rss_mb();
    for (std::size_t i = 0; i < kColdWarmup; ++i) {
      client.compile_serialized(setup->requests[i].text, kMessageBytes,
                                kTenant);
      if (i + 1 == spec.cache_capacity) {
        setup->entry_rss_mb = (current_rss_mb() - before) /
                              static_cast<double>(spec.cache_capacity);
      }
    }
    setup->next_input = kColdWarmup;
  }
  return setup;
}

/// Corrupts a served schedule JSON so it repeats phase 0's first
/// message in place of phase 1's first one (a coverage violation).
std::string duplicate_first_message(std::string json) {
  const std::size_t first = json.find("[[", json.find("\"phases\"")) + 1;
  const std::size_t first_end = json.find(']', first);
  const std::string message = json.substr(first, first_end - first + 1);
  const std::size_t second = json.find("],[[", first_end) + 3;
  const std::size_t second_end = json.find(']', second);
  json.replace(second, second_end - second + 1, message);
  return json;
}

/// Output check of one served response. Returns an empty string when
/// the response is right, else what is wrong. `tamper` corrupts a copy of
/// the response first (self-test).
std::string check_response(const Request& request,
                           netd::ResponseFrame response, bool hits,
                           Tamper tamper) {
  if (tamper == Tamper::kCacheHit) response.cache_hit = !response.cache_hit;
  if (response.cache_hit != hits) {
    return hits ? "a hit workload's request missed the cache"
                : "a compile_cold request hit the cache";
  }
  if (hits) {
    if (tamper == Tamper::kScheduleBytes) {
      response.schedule_json[response.schedule_json.size() / 2] ^= 1;
    } else if (tamper == Tamper::kPermutation) {
      response.to_canonical.front() += 1;
    }
    const AnswerDigest served(response.schedule_json, response.to_canonical);
    if (served.json_hash != request.expected.json_hash ||
        served.json_size != request.expected.json_size) {
      return "schedule JSON differs from the in-process service";
    }
    if (served.perm_hash != request.expected.perm_hash ||
        served.perm_size != request.expected.perm_size) {
      return "to_canonical differs from the in-process service";
    }
    return {};
  }
  const std::string json = tamper == Tamper::kVerify
                               ? duplicate_first_message(response.schedule_json)
                               : response.schedule_json;
  try {
    const core::Schedule schedule =
        core::schedule_from_json(json, request.topo.machine_count());
    const core::VerifyReport report =
        core::verify_schedule(request.topo, schedule);
    if (!report.ok) return "served schedule fails verify: " + report.summary();
  } catch (const std::exception& e) {
    return std::string("served schedule does not parse: ") + e.what();
  }
  return {};
}

/// Sum of a service counter over every backend shard.
double service_total(const netd::Server& server, const char* name) {
  return server.metrics_snapshot().total(name);
}

/// Compilations the server's shards ran: samples of their compile-time
/// histograms.
double compilations(const netd::Server& server) {
  double count = 0;
  for (const obs::SeriesSnapshot& series : server.metrics_snapshot().series) {
    if (series.name == "aapc_service_compile_seconds") {
      count += static_cast<double>(series.histogram.count);
    }
  }
  return count;
}

struct WorkerTally {
  std::vector<double> latencies_ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double check_seconds = 0;
  std::vector<std::string> check_failures;
  std::vector<std::string> errors;
};

}  // namespace

RunResult run_serving(const RunConfig& config) {
  const ServingSpec spec = spec_for(config.workload);
  const bool hits = config.workload != "compile_cold";

  const std::unique_ptr<Setup> setup =
      build_setup(config.workload, spec, config.seed, false);
  if (config.setup_only) return setup_only_result();
  const double setup_s = setup_seconds(config);

  const double ref_before = host_ref_ms();
  std::atomic<bool> tamper_pending{config.tamper != Tamper::kNone};
  std::vector<WorkerTally> tallies(static_cast<std::size_t>(spec.connections));
  const std::size_t inputs = setup->requests.size();
  const Clock::time_point window_start = Clock::now();
  const Clock::time_point deadline =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  auto worker = [&](int c) {
    WorkerTally& tally = tallies[static_cast<std::size_t>(c)];
    netd::Client& client = *setup->clients[static_cast<std::size_t>(c)];
    // Each connection walks the input sequence from its own offset;
    // compile_cold continues the cycle where set-up left it.
    std::size_t next = hits ? inputs * static_cast<std::size_t>(c) /
                                  static_cast<std::size_t>(spec.connections)
                            : setup->next_input;
    while (Clock::now() < deadline) {
      const Request& request = setup->requests[next % inputs];
      ++next;
      ++tally.attempted;
      netd::ResponseFrame response;
      const Clock::time_point sent = Clock::now();
      try {
        response = client.compile_serialized(request.text, kMessageBytes,
                                             kTenant);
      } catch (const std::exception& e) {
        // Error frames and transport errors: failed, and slower than any
        // latency bound.
        ++tally.failed;
        tally.latencies_ms.push_back(std::numeric_limits<double>::infinity());
        if (tally.errors.size() < 4) tally.errors.push_back(e.what());
        continue;
      }
      tally.latencies_ms.push_back(seconds_since(sent) * 1e3);
      const Clock::time_point check_start = Clock::now();
      const Tamper tamper = tamper_pending.exchange(false) ? config.tamper
                                                           : Tamper::kNone;
      const std::string problem =
          check_response(request, std::move(response), hits, tamper);
      tally.check_seconds += seconds_since(check_start);
      if (!problem.empty()) {
        ++tally.failed;
        if (tally.check_failures.size() < 4) tally.check_failures.push_back(problem);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.connections; ++c) threads.emplace_back(worker, c);
  for (std::thread& t : threads) t.join();
  const double wall_s = seconds_since(window_start);
  // Checks run between a connection's requests, outside its latency
  // samples; the window excludes their time (averaged per connection).
  double check_seconds = 0;
  RunResult result;
  result.ref_before_ms = ref_before;
  std::vector<double> latencies;
  for (WorkerTally& tally : tallies) {
    result.attempted += tally.attempted;
    result.failed += tally.failed;
    check_seconds += tally.check_seconds;
    latencies.insert(latencies.end(), tally.latencies_ms.begin(),
                     tally.latencies_ms.end());
    for (const std::string& f : tally.check_failures) result.check_failed(f);
    for (const std::string& e : tally.errors) result.request_failed(e);
  }
  const double window_s = wall_s - check_seconds / spec.connections;
  add_end_to_end(result, setup_s, window_s,
                 result.attempted - result.failed, std::move(latencies),
                 spec.tail_quantile);
  result.note("load", "closed loop, " + std::to_string(spec.connections) +
                          " connection(s) over loopback 127.0.0.1");
  result.note("threads",
              "client " + std::to_string(spec.connections) + ", event loops " +
                  std::to_string(kEventLoops) + ", dispatchers " +
                  std::to_string(kDispatchThreads) + ", shards " +
                  std::to_string(kServerShards) + ", compiler threads " +
                  std::to_string(kCompilerThreads) + ", acceptor 1");
  result.note("cache", "capacity " + std::to_string(spec.cache_capacity) +
                           ", lru shards " + std::to_string(spec.cache_shards));
  result.note("check_seconds", std::to_string(check_seconds));
  return result;
}

void trace_serving(const RunConfig& config, const std::string& workload,
                   Tracer& tracer, RunResult& result) {
  const ServingSpec spec = spec_for(workload);
  const bool hits = workload != "compile_cold";
  const std::unique_ptr<Setup> setup =
      build_setup(workload, spec, config.seed, true);
  netd::Client& client = *setup->clients.front();
  const std::size_t inputs = setup->requests.size();
  const int n = spec.traced_ops;
  const netd::Server& server = *setup->server;
  const double requests_before = service_total(server, "aapc_service_requests_total");
  const double hits_before = service_total(server, "aapc_service_cache_hits_total");
  const double compilations_before = compilations(server);
  const double evictions_before =
      service_total(server, "aapc_service_cache_evictions_total");

  // compile_cold's in-process miss replay needs its own service whose
  // cache is as small as the server's, so each replayed key misses.
  std::unique_ptr<service::ScheduleService> cold;
  if (!hits) cold = std::make_unique<service::ScheduleService>(service_options(spec));

  auto request_at = [&](int i) -> const Request& {
    return setup->requests[(setup->next_input + static_cast<std::size_t>(i)) % inputs];
  };
  auto roundtrip = [&](const Request& request) {
    ++result.attempted;
    try {
      const std::string problem = check_response(
          request, client.compile_serialized(request.text, kMessageBytes, kTenant),
          hits, Tamper::kNone);
      if (!problem.empty()) {
        ++result.failed;
        result.check_failed(workload + ": " + problem);
      }
    } catch (const std::exception& e) {
      ++result.failed;
      result.request_failed(workload + ": " + e.what());
    }
  };

  // Untraced window, then the traced window over the same inputs.
  std::vector<double> untraced_ms;
  for (int i = 0; i < n; ++i) {
    const Clock::time_point sent = Clock::now();
    roundtrip(request_at(i));
    untraced_ms.push_back(seconds_since(sent) * 1e3);
  }
  std::vector<double> traced_ms;
  std::vector<double> transport_us;
  std::vector<double> response_bytes;
  std::vector<double> messages;
  std::vector<double> phases;
  const std::string op_name = "op." + workload;
  for (int i = 0; i < n; ++i) {
    // compile_cold continues the cycle so the traced round trips miss too.
    const Request& request = request_at(hits ? i : n + i);
    const ScopedSpan op(&tracer, op_name.c_str(), i);
    const std::int32_t rt = tracer.begin("netd.roundtrip", i);
    roundtrip(request);
    const double roundtrip_us = tracer.end(rt);
    traced_ms.push_back(roundtrip_us / 1e3);
    if (hits) {
      // The stages the server's dispatcher runs for this request,
      // replayed in process on the same text.
      const std::int32_t parse = tracer.begin("topology.parse", i);
      const topology::Topology topo = topology::parse_topology(request.text);
      double stages_us = tracer.end(parse);
      const std::int32_t canon_span = tracer.begin("service.canonicalize", i);
      const service::Canonicalization canon = service::canonicalize(topo);
      stages_us += tracer.end(canon_span);
      const std::int32_t hit = tracer.begin("service.hit", i);
      service::CompiledRoutine routine =
          setup->reference->compile(topo, kMessageBytes, canon);
      stages_us += tracer.end(hit);
      // Free the hit's relabeled programs first, so the separate call
      // reuses that memory as the service's own call does (fresh pages
      // would add about 3 ms of page faults at 256 ranks). The result
      // outlives the span, so the span does not time its frees either.
      routine.programs = mpisim::ProgramSet{};
      mpisim::ProgramSet programs;
      {
        const ScopedSpan relabel(&tracer, "mpisim.relabel_programs", i);
        programs = mpisim::relabel_program_set(
            routine.entry->programs,
            core::invert_permutation(canon.to_canonical));
      }
      netd::ResponseFrame frame;
      frame.cache_hit = routine.cache_hit;
      frame.canonical_hash = canon.hash;
      frame.to_canonical = routine.to_canonical;
      const std::int32_t json = tracer.begin("core.schedule_json", i);
      frame.schedule_json =
          core::schedule_to_json(routine.schedule, topo.machine_count());
      stages_us += tracer.end(json);
      const std::int32_t encode = tracer.begin("netd.encode", i);
      const std::string bytes = netd::encode_response(frame);
      stages_us += tracer.end(encode);
      response_bytes.push_back(static_cast<double>(bytes.size()));
      transport_us.push_back(roundtrip_us - stages_us);
    } else {
      {
        const ScopedSpan miss(&tracer, "service.miss", i);
        cold->compile(request.topo, kMessageBytes);
      }
      // The calls the service's compile path makes, on the canonical
      // topology, with lowering reusing the precomputed sync plan.
      const topology::Topology ctopo = service::build_canonical_topology(
          service::canonicalize(request.topo).canonical_form);
      core::Decomposition dec;
      {
        const ScopedSpan s(&tracer, "core.decompose", i);
        dec = core::decompose(ctopo);
      }
      core::Schedule schedule;
      {
        const ScopedSpan s(&tracer, "core.assign", i);
        schedule = core::assign_messages_hierarchical(dec);
      }
      {
        const ScopedSpan s(&tracer, "core.verify", i);
        const core::VerifyReport report = core::verify_schedule(ctopo, schedule);
        if (!report.ok) result.check_failed("replayed schedule fails verify");
      }
      sync::SyncPlan plan;
      {
        const ScopedSpan s(&tracer, "sync.plan", i);
        plan = sync::build_sync_plan(ctopo, schedule);
      }
      {
        const ScopedSpan s(&tracer, "lowering.lower", i);
        lowering::LoweringOptions options;
        options.precomputed_plan = &plan;
        lowering::lower_schedule(ctopo, schedule, kMessageBytes, options);
      }
      messages.push_back(static_cast<double>(schedule.message_count()));
      phases.push_back(static_cast<double>(schedule.phase_count()));
    }
  }

  const double requests = service_total(server, "aapc_service_requests_total") -
                          requests_before;
  const double served_hits =
      service_total(server, "aapc_service_cache_hits_total") - hits_before;
  result.add("service.hit_ratio." + workload, served_hits / requests, "ratio");
  const double overhead =
      (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0;
  result.add("trace.overhead_pct." + workload, overhead, "%");

  auto median_us = [&](const char* name) { return median(tracer.self_times_us(name)); };
  if (workload == "hit_small") {
    result.add("topology.parse_us", median_us("topology.parse"), "us");
    result.add("service.canonicalize_us", median_us("service.canonicalize"), "us");
    result.add("netd.transport_us", median(transport_us), "us");
  } else if (workload == "hit_large") {
    result.add("service.hit_us", median_us("service.hit"), "us");
    result.add("mpisim.relabel_programs_us", median_us("mpisim.relabel_programs"), "us");
    result.add("core.schedule_json_us", median_us("core.schedule_json"), "us");
    result.add("netd.encode_us", median_us("netd.encode"), "us");
    result.add("netd.response_bytes", median(response_bytes), "bytes");
  } else {
    result.add("service.miss_ms", median_us("service.miss") / 1e3, "ms");
    result.add("core.decompose_ms", median_us("core.decompose") / 1e3, "ms");
    result.add("core.assign_ms", median_us("core.assign") / 1e3, "ms");
    result.add("core.verify_ms", median_us("core.verify") / 1e3, "ms");
    result.add("sync.plan_ms", median_us("sync.plan") / 1e3, "ms");
    result.add("lowering.lower_ms", median_us("lowering.lower") / 1e3, "ms");
    result.add("core.messages", median(messages), "count");
    result.add("core.phases", median(phases), "count");
    result.add("service.compilations",
               compilations(server) - compilations_before, "count");
    result.add("service.evictions",
               service_total(server, "aapc_service_cache_evictions_total") -
                   evictions_before,
               "count");
    result.add("service.entry_rss_mb", setup->entry_rss_mb, "MB");
  }
}

}  // namespace perfbench
