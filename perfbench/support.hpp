// Shared pieces of the benchmark program: run configuration, the result
// record every workload fills in, order statistics, process memory,
// the host reference kernel, and the in-memory span recorder used by
// traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// When this process started (static initialization of the benchmark);
/// the first set-up is timed from here.
Clock::time_point process_start();

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Message size of every request and simulation: one size class.
inline constexpr std::int64_t kMessageBytes = 64 * 1024;

/// Output check a tamper self-test run corrupts once (kNone = normal run).
enum class Tamper {
  kNone,
  kScheduleBytes,   // hit_*: one served schedule JSON byte
  kPermutation,     // hit_*: one served to_canonical entry
  kCacheHit,        // hit_*, compile_cold: one served cache_hit flag
  kVerify,          // compile_cold: one served schedule before verify
  kIntegrity,       // simulate: one exactly-once audit
  kRepeat,          // simulate: one recorded completion time
  kOursVsLam,       // simulate: one generated-vs-LAM comparison
};

/// A workload and the output checks --tamper can corrupt in it. This
/// table is the one list of workloads; run.py reads it via --list.
struct WorkloadInfo {
  const char* name;
  std::vector<std::pair<const char*, Tamper>> tampers;
};
const std::vector<WorkloadInfo>& workloads();

/// The tamper named `name` of `workload` ("" or "none" = kNone).
Tamper parse_tamper(const std::string& workload, const std::string& name);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Tamper tamper = Tamper::kNone;
  /// Directory traced runs write their span dump into.
  std::string out_dir = ".bench_build";
  std::string commit = "unknown";
  /// Build the set-up, report its time as setup_s and stop.
  bool setup_only = false;
  /// Set-up times (s) of the set-up-only processes run before this one.
  std::vector<double> setup_samples;
};

/// One named measurement.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a run reports. Every operation is attempted; an error frame, a
/// transport error or a failed output check marks it failed, and the
/// run goes on.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Descriptions of failed output checks (the run is incorrect when
  /// this is non-empty).
  std::vector<std::string> check_failures;
  /// Descriptions of failed requests (error frames, transport errors).
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// host_ref_ms() just before the timed window (after set-up, so the
  /// first set-up, timed from process start, does not include it).
  double ref_before_ms = 0;
  /// Descriptive key/value rows (thread counts, spans path, ...).
  std::vector<std::pair<std::string, std::string>> info;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void note(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  void check_failed(const std::string& what);
  void request_failed(const std::string& what);
  bool correct() const { return check_failures.empty(); }
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; +inf entries
/// (failed operations) sort last. Requires a non-empty input.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// setup_s of a run: the median of this process's set-up, timed from
/// process start, and config.setup_samples. Each set-up runs in its own
/// process, so no earlier set-up leaves memory behind in the measured one.
double setup_seconds(const RunConfig& config);

/// The result of a --setup-only process: setup_s alone.
RunResult setup_only_result();

/// VmHWM / VmRSS of this process, in MB (10^6 bytes).
double peak_rss_mb();
double current_rss_mb();

/// A fixed ALU + memory kernel that does not touch the repository's
/// code, in milliseconds (median of 5). Timed before and after each
/// run's measurement to tell host drift from program regressions.
double host_ref_ms();

/// 64-bit FNV-1a, for deriving per-workload input streams from --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// 64-bit FNV-1a of `size` bytes, for comparing answers by digest.
std::uint64_t fnv1a(const void* data, std::size_t size);

/// In-memory span recorder for traced runs. Single-threaded: each
/// traced replay records from the benchmark's own thread, around the
/// calls it makes into the program. Spans are written out at exit.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t op = 0;
    std::int32_t parent = -1;
    double start_us = 0;
    double end_us = 0;
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  std::int32_t begin(const char* name, std::int64_t op);
  /// Closes span `index` and returns its duration in microseconds.
  double end(std::int32_t index);

  /// Per-operation self time (duration minus the part covered by child
  /// spans) of every span named `name`, in microseconds, in op order.
  std::vector<double> self_times_us(const std::string& name) const;

  /// Writes every span as JSON ({"spans": [...], "self_time_us": {...}}).
  void write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null tracer records nothing (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int64_t op)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

// Workload entry points (serving.cpp, simulate.cpp). The untraced run
// fills the end-to-end metrics; the traced replay fills the per-layer
// metrics of its workload into `result` and records spans in `tracer`.
RunResult run_serving(const RunConfig& config);
RunResult run_simulate(const RunConfig& config);
void trace_serving(const RunConfig& config, const std::string& workload,
                   Tracer& tracer, RunResult& result);
void trace_simulate(const RunConfig& config, Tracer& tracer,
                    RunResult& result);

/// Adds the five end-to-end metrics from one timed window; tail_ms is
/// the workload's `tail_quantile` of the latencies.
void add_end_to_end(RunResult& result, double setup_s, double window_s,
                    std::int64_t completed, std::vector<double> latencies_ms,
                    double tail_quantile);

}  // namespace perfbench
