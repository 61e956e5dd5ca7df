// The simulate workload: one thread, one operation at a time. An
// operation runs the generated routine, LAM and MPICH through
// mpisim::Executor on the paper's topology (b) at 64 KiB, with the
// operation's own wakeup-jitter seed from a fixed cycle, so every
// operation does the same kind of work and the cycle repeats exactly.
#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "aapc/baselines/baselines.hpp"
#include "aapc/core/assign.hpp"
#include "aapc/core/decompose.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/sync/sync_plan.hpp"
#include "aapc/topology/generators.hpp"
#include "perfbench/support.hpp"

namespace perfbench {
namespace {

using namespace aapc;

/// Jitter seeds per cycle; set-up runs the cycle once, so every timed
/// operation has a recorded completion time to repeat.
constexpr std::size_t kJitterCycle = 16;
/// Operations in each traced replay window.
constexpr int kTracedOps = 80;
/// Quantile reported as tail_ms: ~75-110 of ~1500-2200 operations in a
/// 30 s run lie beyond it.
constexpr double kTailQuantile = 0.95;

constexpr std::array<const char*, 3> kAlgorithms = {"ours", "lam", "mpich"};
constexpr std::array<const char*, 3> kRunSpans = {
    "mpisim.run_ours", "mpisim.run_lam", "mpisim.run_mpich"};

struct Suite {
  topology::Topology topo = topology::make_paper_topology_b();
  std::array<mpisim::ProgramSet, 3> programs;
  std::vector<std::uint64_t> jitter_seeds;
  /// completion[seed index][algorithm] from the set-up pass.
  std::vector<std::array<double, 3>> completion;
};

/// The suite build: schedule, verify and lower the generated routine
/// (lowering reuses the sync plan), plus the two baselines.
Suite build_suite(std::uint64_t seed) {
  Suite suite;
  const core::Schedule schedule =
      core::assign_messages(core::decompose(suite.topo));
  const core::VerifyReport report = core::verify_schedule(suite.topo, schedule);
  if (!report.ok) throw std::runtime_error("suite schedule: " + report.summary());
  const sync::SyncPlan plan = sync::build_sync_plan(suite.topo, schedule);
  lowering::LoweringOptions options;
  options.precomputed_plan = &plan;
  suite.programs[0] =
      lowering::lower_schedule(suite.topo, schedule, kMessageBytes, options);
  const std::int32_t ranks = suite.topo.machine_count();
  suite.programs[1] = baselines::lam_alltoall(ranks, kMessageBytes);
  suite.programs[2] = baselines::mpich_alltoall(ranks, kMessageBytes);
  for (std::size_t i = 0; i < kJitterCycle; ++i) {
    suite.jitter_seeds.push_back(mix_seed(seed, 100 + i));
  }
  return suite;
}

mpisim::ExecutionResult run_one(const Suite& suite, std::size_t algorithm,
                                std::uint64_t jitter_seed) {
  mpisim::ExecutorParams params;
  params.jitter_seed = jitter_seed;
  mpisim::Executor executor(suite.topo, simnet::NetworkParams{}, params);
  return executor.run(suite.programs[algorithm]);
}

/// Output checks of one operation (three executions for one seed).
std::string check_op(const Suite& suite, std::size_t seed_index,
                     std::array<mpisim::ExecutionResult, 3>& results,
                     Tamper tamper) {
  if (tamper == Tamper::kIntegrity) results[1].integrity.missing += 1;
  for (std::size_t a = 0; a < results.size(); ++a) {
    if (!results[a].integrity.ok()) {
      return std::string(kAlgorithms[a]) +
             " integrity: " + results[a].integrity.summary();
    }
    double recorded = suite.completion[seed_index][a];
    if (tamper == Tamper::kRepeat && a == 0) {
      recorded = std::nextafter(recorded, std::numeric_limits<double>::infinity());
    }
    if (results[a].completion_time != recorded) {
      return std::string(kAlgorithms[a]) +
             " completion time did not repeat for its jitter seed";
    }
  }
  const double lam = tamper == Tamper::kOursVsLam
                         ? results[0].completion_time / 2
                         : results[1].completion_time;
  if (results[0].completion_time > lam) {
    return "generated routine finished later than LAM on (b) at 64 KiB";
  }
  return {};
}

std::array<mpisim::ExecutionResult, 3> run_op(const Suite& suite,
                                              std::size_t seed_index,
                                              Tracer* tracer, std::int64_t op) {
  std::array<mpisim::ExecutionResult, 3> results;
  for (std::size_t a = 0; a < results.size(); ++a) {
    const ScopedSpan span(tracer, kRunSpans[a], op);
    results[a] = run_one(suite, a, suite.jitter_seeds[seed_index]);
  }
  return results;
}

/// Suite build plus one pass over the jitter cycle (recording each
/// seed's completion times).
Suite build_setup(std::uint64_t seed) {
  Suite suite = build_suite(seed);
  for (std::size_t i = 0; i < kJitterCycle; ++i) {
    const std::array<mpisim::ExecutionResult, 3> results =
        run_op(suite, i, nullptr, 0);
    suite.completion.push_back({results[0].completion_time,
                                results[1].completion_time,
                                results[2].completion_time});
  }
  return suite;
}

}  // namespace

RunResult run_simulate(const RunConfig& config) {
  const Suite suite = build_setup(config.seed);
  if (config.setup_only) return setup_only_result();
  const double setup_s = setup_seconds(config);

  RunResult result;
  result.ref_before_ms = host_ref_ms();
  std::vector<double> latencies_ms;
  double check_seconds = 0;
  bool tamper_pending = config.tamper != Tamper::kNone;
  const Clock::time_point window_start = Clock::now();
  const double limit = config.seconds;
  for (std::size_t k = 0; seconds_since(window_start) < limit; ++k) {
    const std::size_t seed_index = k % kJitterCycle;
    ++result.attempted;
    const Clock::time_point start = Clock::now();
    std::array<mpisim::ExecutionResult, 3> results;
    try {
      results = run_op(suite, seed_index, nullptr, 0);
    } catch (const std::exception& e) {
      ++result.failed;
      latencies_ms.push_back(std::numeric_limits<double>::infinity());
      result.request_failed(std::string("execution failed: ") + e.what());
      continue;
    }
    latencies_ms.push_back(seconds_since(start) * 1e3);
    const Clock::time_point check_start = Clock::now();
    const std::string problem = check_op(
        suite, seed_index, results, tamper_pending ? config.tamper : Tamper::kNone);
    tamper_pending = false;
    check_seconds += seconds_since(check_start);
    if (!problem.empty()) {
      ++result.failed;
      result.check_failed(problem);
    }
  }
  const double window_s = seconds_since(window_start) - check_seconds;
  add_end_to_end(result, setup_s, window_s,
                 result.attempted - result.failed, std::move(latencies_ms),
                 kTailQuantile);
  result.note("load", "closed loop, 1 thread, in process (no netd/service)");
  result.note("op", "ours + LAM + MPICH on topology (b), 32 ranks, 64 KiB");
  return result;
}

void trace_simulate(const RunConfig& config, Tracer& tracer, RunResult& result) {
  const Suite suite = build_setup(config.seed);
  std::vector<double> untraced_ms;
  for (int i = 0; i < kTracedOps; ++i) {
    const Clock::time_point start = Clock::now();
    run_op(suite, static_cast<std::size_t>(i) % kJitterCycle, nullptr, i);
    untraced_ms.push_back(seconds_since(start) * 1e3);
  }
  std::vector<double> traced_ms;
  std::vector<double> recomputations, activated, concurrent, messages;
  for (int i = 0; i < kTracedOps; ++i) {
    const std::size_t seed_index = static_cast<std::size_t>(i) % kJitterCycle;
    const std::int32_t op = tracer.begin("op.simulate", i);
    std::array<mpisim::ExecutionResult, 3> results =
        run_op(suite, seed_index, &tracer, i);
    traced_ms.push_back(tracer.end(op) / 1e3);
    ++result.attempted;
    const std::string problem = check_op(suite, seed_index, results, Tamper::kNone);
    if (!problem.empty()) {
      ++result.failed;
      result.check_failed("simulate: " + problem);
    }
    double r = 0, f = 0, c = 0, m = 0;
    for (const mpisim::ExecutionResult& run : results) {
      r += static_cast<double>(run.network_stats.rate_recomputations);
      f += static_cast<double>(run.network_stats.flows_activated);
      c = std::max(c, static_cast<double>(run.network_stats.max_concurrent_flows));
      m += static_cast<double>(run.message_count);
    }
    recomputations.push_back(r);
    activated.push_back(f);
    concurrent.push_back(c);
    messages.push_back(m);
  }
  auto median_ms = [&](const char* name) {
    return median(tracer.self_times_us(name)) / 1e3;
  };
  result.add("mpisim.run_ours_ms", median_ms("mpisim.run_ours"), "ms");
  result.add("mpisim.run_lam_ms", median_ms("mpisim.run_lam"), "ms");
  result.add("mpisim.run_mpich_ms", median_ms("mpisim.run_mpich"), "ms");
  result.add("simnet.rate_recomputations", median(recomputations), "count");
  result.add("simnet.flows_activated", median(activated), "count");
  result.add("simnet.max_concurrent_flows", median(concurrent), "count");
  result.add("mpisim.messages", median(messages), "count");
  result.add("trace.overhead_pct.simulate",
             (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0, "%");
}

}  // namespace perfbench
