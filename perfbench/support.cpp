#include "perfbench/support.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> table = {
      {"hit_small",
       {{"schedule_bytes", Tamper::kScheduleBytes},
        {"permutation", Tamper::kPermutation},
        {"cache_hit", Tamper::kCacheHit}}},
      {"hit_large",
       {{"schedule_bytes", Tamper::kScheduleBytes},
        {"permutation", Tamper::kPermutation},
        {"cache_hit", Tamper::kCacheHit}}},
      {"compile_cold",
       {{"verify", Tamper::kVerify}, {"cache_hit", Tamper::kCacheHit}}},
      {"simulate",
       {{"integrity", Tamper::kIntegrity},
        {"repeat", Tamper::kRepeat},
        {"ours_vs_lam", Tamper::kOursVsLam}}},
  };
  return table;
}

Tamper parse_tamper(const std::string& workload, const std::string& name) {
  if (name.empty() || name == "none") return Tamper::kNone;
  for (const WorkloadInfo& info : workloads()) {
    if (workload != info.name) continue;
    for (const auto& [tamper_name, tamper] : info.tampers) {
      if (name == tamper_name) return tamper;
    }
  }
  throw std::invalid_argument("no --tamper check " + name + " in workload " +
                              workload);
}

namespace {

const Clock::time_point kProcessStart = Clock::now();

// Keeps the first few descriptions; the count is in `failed`.
void keep_first(std::vector<std::string>& list, const std::string& what) {
  if (list.size() < 8) list.push_back(what);
  else if (list.size() == 8) list.push_back("...");
}

}  // namespace

Clock::time_point process_start() { return kProcessStart; }

double setup_seconds(const RunConfig& config) {
  std::vector<double> samples = config.setup_samples;
  samples.push_back(seconds_since(process_start()));
  return median(std::move(samples));
}

RunResult setup_only_result() {
  RunResult result;
  result.add("setup_s", seconds_since(process_start()), "s");
  return result;
}

void RunResult::check_failed(const std::string& what) {
  keep_first(check_failures, what);
}

void RunResult::request_failed(const std::string& what) {
  keep_first(errors, what);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

namespace {

double status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size()));
    }
  }
  return 0;
}

}  // namespace

double peak_rss_mb() { return status_kb("VmHWM") * 1024.0 / 1e6; }
double current_rss_mb() { return status_kb("VmRSS") * 1024.0 / 1e6; }

double host_ref_ms() {
  // 2 MiB of words: larger than L2 on common hosts, so the kernel mixes
  // dependent ALU work with memory traffic, like the simulator does.
  static std::vector<std::uint64_t> buffer(1u << 18, 1);
  std::vector<double> samples;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    std::uint64_t acc = static_cast<std::uint64_t>(rep) + 1;
    for (int pass = 0; pass < 8; ++pass) {
      for (std::size_t i = 0; i < buffer.size(); ++i) {
        acc = acc * 6364136223846793005ull + buffer[i];
        buffer[(acc >> 20) & (buffer.size() - 1)] += acc & 7;
      }
    }
    sink += acc;
    samples.push_back(seconds_since(start) * 1e3);
  }
  buffer[0] = sink;  // keeps the loop observable
  return median(samples);
}

std::uint64_t fnv1a(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // Little-endian bytes of both words, so streams match across hosts.
  unsigned char bytes[16];
  for (int b = 0; b < 8; ++b) {
    bytes[b] = static_cast<unsigned char>(seed >> (8 * b));
    bytes[8 + b] = static_cast<unsigned char>(stream >> (8 * b));
  }
  return fnv1a(bytes, sizeof bytes);
}

std::int32_t Tracer::begin(const char* name, std::int64_t op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

double Tracer::end(std::int32_t index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_us = std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
  return span.end_us - span.start_us;
}

std::vector<double> Tracer::self_times_us(const std::string& name) const {
  // Children are recorded strictly nested inside their parent (one
  // thread, RAII scopes), so the covered part is the sum of direct
  // children's durations.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<std::size_t>(span.parent)] += span.end_us - span.start_us;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back(spans_[i].end_us - spans_[i].start_us - child_us[i]);
    }
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span dump " + path);
  out.precision(15);
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? "," : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"op\":" << s.op << ",\"parent\":" << s.parent
        << ",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us << "}";
  }
  out << "],\"self_time_us\":{";
  std::map<std::string, double> totals;
  for (const Span& s : spans_) totals.emplace(s.name, 0.0);
  bool first = true;
  for (auto& [name, total] : totals) {
    for (const double v : self_times_us(name)) total += v;
    out << (first ? "" : ",") << "\"" << name << "\":" << total;
    first = false;
  }
  out << "}}\n";
}

void add_end_to_end(RunResult& result, double setup_s, double window_s,
                    std::int64_t completed, std::vector<double> latencies_ms,
                    double tail_q) {
  result.add("setup_s", setup_s, "s");
  result.add("ops_per_s", static_cast<double>(completed) / window_s, "1/s");
  result.add("p50_ms", quantile(latencies_ms, 0.5), "ms");
  result.add("tail_ms", quantile(std::move(latencies_ms), tail_q), "ms");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
