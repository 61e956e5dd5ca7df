// perfbench: end-to-end benchmark of the schedule service and the
// simulator (see BENCHMARK.md in this directory).
//
//   perfbench --workload hit_small|hit_large|compile_cold|simulate
//             --seed N --seconds S --trace 0|1
//             [--tamper CHECK] [--out-dir DIR] [--commit ID]
//             [--setup-only 1] [--setup-samples S1,S2,...]
//   perfbench --list
//
// --trace 0 runs the workload for S seconds and reports its end-to-end
// metrics. --trace 1 replays every workload's inputs for the seed with
// in-memory spans and reports the per-layer metrics plus the tracing
// overhead; spans are written to DIR/traces/. Ledger rows (one JSON
// object per metric) precede the last stdout line, which is the result
// object. --setup-only stops after the set-up and reports setup_s alone;
// --setup-samples gives the set-up times of such earlier processes, and
// setup_s is their median together with this process's own. The exit
// code is 1 when an output check failed, 2 on a usage error. --list
// prints each workload with the checks --tamper can corrupt in it, one
// JSON object per line.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench/support.hpp"

namespace {

using namespace perfbench;

bool known_workload(const std::string& name) {
  for (const WorkloadInfo& info : workloads()) {
    if (name == info.name) return true;
  }
  return false;
}

RunConfig parse_args(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  std::string tamper;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      config.trace = std::stoi(value) != 0;
    } else if (flag == "--tamper") {
      tamper = value;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--commit") {
      config.commit = value;
    } else if (flag == "--setup-only") {
      config.setup_only = std::stoi(value) != 0;
    } else if (flag == "--setup-samples") {
      std::size_t pos = 0;
      while (pos < value.size()) {
        std::size_t used = 0;
        config.setup_samples.push_back(std::stod(value.substr(pos), &used));
        pos += used + 1;  // past the comma
      }
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !known_workload(config.workload)) {
    std::string names;
    for (const WorkloadInfo& info : workloads()) {
      names += std::string(names.empty() ? "" : ", ") + info.name;
    }
    throw std::invalid_argument("--workload must be one of " + names);
  }
  config.tamper = parse_tamper(config.workload, tamper);
  if (!(config.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return config;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

/// Ledger layer of a metric: its module prefix, or end_to_end.
std::string layer_of(const std::string& metric, bool traced) {
  if (!traced) return "end_to_end";
  return metric.substr(0, metric.find('.'));
}

RunResult run_traced(const RunConfig& config) {
  RunResult result;
  result.ref_before_ms = host_ref_ms();
  const std::string dir = config.out_dir + "/traces";
  std::filesystem::create_directories(dir);
  for (const WorkloadInfo& info : workloads()) {
    const std::string workload = info.name;
    Tracer tracer;
    if (workload == "simulate") {
      trace_simulate(config, tracer, result);
    } else {
      trace_serving(config, workload, tracer, result);
    }
    const std::string path = dir + "/spans-" + config.workload + "-seed" +
                             std::to_string(config.seed) + "-" + workload +
                             ".json";
    tracer.write_json(path);
    result.note("spans." + workload, path);
  }
  return result;
}

void print_workloads() {
  for (const WorkloadInfo& info : workloads()) {
    std::cout << "{\"workload\":" << json_string(info.name) << ",\"tampers\":[";
    for (std::size_t i = 0; i < info.tampers.size(); ++i) {
      std::cout << (i ? "," : "") << json_string(info.tampers[i].first);
    }
    std::cout << "]}\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list") {
    print_workloads();
    return 0;
  }
  RunConfig config;
  try {
    config = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  RunResult result;
  try {
    if (config.trace) {
      result = run_traced(config);
    } else if (config.workload == "simulate") {
      result = run_simulate(config);
    } else {
      result = run_serving(config);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << config.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  const double ref_before = result.ref_before_ms;
  const double ref_after = host_ref_ms();
  if (config.trace) result.add("host.ref_ms", (ref_before + ref_after) / 2, "ms");

  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.check_failed(m.name + " is not finite (every operation failed?)");
    }
  }
  for (const auto& [key, value] : result.info) {
    std::cerr << "# " << key << ": " << value << "\n";
  }
  std::cerr << "# host.ref_ms before/after: " << ref_before << " / "
            << ref_after << "\n";
  for (const std::string& e : result.errors) {
    std::cerr << "# request failed: " << e << "\n";
  }
  for (const std::string& f : result.check_failures) {
    std::cerr << "# CHECK FAILED: " << f << "\n";
  }

  const std::string stamp =
      ",\"cores\":" + std::to_string(std::thread::hardware_concurrency()) +
      ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
      ",\"commit\":" + json_string(config.commit) + "}";
  auto ledger = [&](const std::string& layer, const std::string& metric,
                    double value, const std::string& unit) {
    std::cout << "{\"bench\":\"perfbench\",\"layer\":" << json_string(layer)
              << ",\"case\":" << json_string(config.workload)
              << ",\"metric\":" << json_string(metric)
              << ",\"value\":" << json_number(value)
              << ",\"unit\":" << json_string(unit) << stamp << "\n";
  };
  for (const Metric& m : result.metrics) {
    ledger(layer_of(m.name, config.trace), m.name, m.value, m.unit);
  }
  const double share = result.attempted > 0
                           ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 0.0;
  ledger("run", "attempted", static_cast<double>(result.attempted), "count");
  ledger("run", "failed", static_cast<double>(result.failed), "count");
  ledger("run", "failed_share", share, "ratio");
  ledger("host", "host.ref_ms.before", ref_before, "ms");
  ledger("host", "host.ref_ms.after", ref_after, "ms");

  std::cout << "{\"correct\":" << (result.correct() ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) continue;
    std::cout << (first ? "" : ",") << json_string(m.name)
              << ":{\"value\":" << json_number(m.value)
              << ",\"unit\":" << json_string(m.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return result.correct() ? 0 : 1;
}
