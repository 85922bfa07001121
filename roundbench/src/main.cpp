// Round benchmark entry point.
//
//   roundbench --workload flat_sync|codec_ingest|tcp_hier --seed N
//              --seconds S --trace 0|1 [--worker PATH]
//
// Prints one "<workload> <metric> = <value> <unit>" line per metric, then a
// last line "ROUNDBENCH_RESULT {json}" with every metric, the machine block,
// the deterministic per-round outputs and the output-check tallies.
// --trace 0 runs the workload once, untraced, and reports the end-to-end
// metrics. --trace 1 runs it twice with the same seed, thread count and
// process count — untraced, then traced — checks that both produced the
// same deterministic outputs, and reports the per-layer metrics of the
// traced pass plus trace.overhead_share. Exits 1 when any output check
// fails, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "machine.hpp"
#include "workloads.hpp"

namespace roundbench {
namespace {

/// Nominal per-round cost of each workload on the reference machine (4
/// cores): a run's round count is fixed from --seconds with these, so a
/// seed always yields the same rounds and the same deterministic outputs.
constexpr double kFlatRoundS = 5.0;
constexpr double kIngestRoundS = 0.5;
constexpr double kTcpRoundS = 6.5;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload flat_sync|codec_ingest|tcp_hier "
               "--seed N --seconds S --trace 0|1 [--worker PATH]\n",
               argv0);
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* rest = nullptr;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &rest, 10);
      if (*rest != '\0') usage(argv[0]);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &rest);
      if (*rest != '\0' || !(o.seconds > 0.0)) usage(argv[0]);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage(argv[0]);
      o.trace = value == "1";
      have_trace = true;
    } else if (key == "--worker") {
      o.worker_path = value;
    } else {
      usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || o.workload.empty() || !have_trace) usage(argv[0]);
  if (o.workload == "tcp_hier" && o.worker_path.empty()) usage(argv[0]);
  return o;
}

PassResult run_pass(const RunOptions& o, int rounds, bool traced) {
  if (o.workload == "flat_sync")
    return traced ? flat_sync_traced(o, rounds)
                  : flat_sync_coordinator(o, rounds);
  if (o.workload == "codec_ingest") return codec_ingest(o, rounds, traced);
  return tcp_hier(o, rounds, traced);
}

int rounds_for(const RunOptions& o) {
  // Each trace-1 pass gets half the time; at least 2 measured rounds (10
  // for codec_ingest) follow the warm-up.
  const double seconds = o.trace ? o.seconds / 2.0 : o.seconds;
  if (o.workload == "flat_sync")
    return 1 + measured_rounds(seconds, kFlatRoundS, 2);
  if (o.workload == "codec_ingest")
    return 1 + measured_rounds(seconds, kIngestRoundS, 10);
  return 1 + measured_rounds(seconds, kTcpRoundS, 2);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The traced pass must reproduce the untraced pass's deterministic
/// outputs exactly (flat_sync: the bench loop against the coordinator).
void compare_passes(const PassResult& untraced, const PassResult& traced,
                    std::vector<std::string>& problems) {
  const std::string who = "traced pass vs untraced pass: ";
  if (traced.uplink_bytes != untraced.uplink_bytes)
    problems.push_back(who + "per-round uplink bytes differ");
  if (traced.uplink_raw_bytes != untraced.uplink_raw_bytes)
    problems.push_back(who + "per-round raw bytes differ");
  bool accuracy_same = traced.accuracy.size() == untraced.accuracy.size();
  for (std::size_t r = 0; accuracy_same && r < traced.accuracy.size(); ++r)
    accuracy_same = same_bits(traced.accuracy[r], untraced.accuracy[r]);
  if (!accuracy_same) problems.push_back(who + "per-round accuracy differs");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename T>
std::string json_array(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += json_number(static_cast<double>(values[i]));
  }
  return out + "]";
}

}  // namespace

int main_impl(int argc, char** argv) {
  const RunOptions o = parse(argc, argv);
  if (o.workload != "flat_sync" && o.workload != "codec_ingest" &&
      o.workload != "tcp_hier")
    usage(argv[0]);
  const int rounds = rounds_for(o);

  const PassResult untraced = run_pass(o, rounds, false);
  std::string traced_rounds = "[]";
  Metrics metrics = end_to_end_metrics(untraced);
  std::vector<std::string> problems = untraced.problems;
  std::uint64_t attempted = untraced.attempted;
  std::uint64_t failed = untraced.failed;
  if (o.trace) {
    const PassResult traced = run_pass(o, rounds, true);
    problems.insert(problems.end(), traced.problems.begin(),
                    traced.problems.end());
    compare_passes(untraced, traced, problems);
    attempted += traced.attempted;
    failed += traced.failed;
    const Metrics traced_e2e = end_to_end_metrics(traced);
    traced_rounds = "[";
    for (const auto& round : per_round_layer_values(traced)) {
      traced_rounds += traced_rounds.size() > 1 ? ", {" : "{";
      bool first = true;
      for (const auto& [name, value] : round) {
        traced_rounds += (first ? "" : ", ") + json_string(name) + ": " +
                         json_number(value);
        first = false;
      }
      traced_rounds += "}";
    }
    traced_rounds += "]";
    Metrics layers = per_layer_metrics(traced);
    layers["trace.overhead_share"] = {
        traced_e2e.at("round_s").first / metrics.at("round_s").first - 1.0,
        "fraction"};
    // End-to-end metrics that hold for one workload only ride the traced
    // report, 0 where they do not apply.
    const auto value_or_zero = [&](const char* name) {
      return metrics.count(name) ? metrics.at(name).first : 0.0;
    };
    layers["final_accuracy"] = {value_or_zero("final_accuracy"), "fraction"};
    layers["round_s_tail"] = {value_or_zero("round_s_tail"), "s"};
    layers["round_s_tail_q"] = {value_or_zero("round_s_tail_q"), "fraction"};
    layers["round_s_samples"] = metrics.at("round_s_samples");
    layers["failed_share"] = {
        attempted > 0 ? static_cast<double>(failed) /
                            static_cast<double>(attempted)
                      : 1.0,
        "fraction"};
    metrics = std::move(layers);
  }
  const MachineInfo machine = measure_machine();

  for (const auto& [name, metric] : metrics)
    std::printf("%s %s = %.6g %s\n", o.workload.c_str(), name.c_str(),
                metric.first, metric.second.c_str());
  std::printf("%s machine %s\n", o.workload.c_str(),
              machine_json(machine).c_str());
  for (const std::string& problem : problems)
    std::printf("%s CHECK FAILED: %s\n", o.workload.c_str(), problem.c_str());

  std::string out = "ROUNDBENCH_RESULT {\"workload\": " + json_string(o.workload);
  out += ", \"seed\": " + std::to_string(o.seed);
  out += ", \"trace\": " + std::string(o.trace ? "1" : "0");
  out += ", \"rounds\": " + std::to_string(rounds);
  out += ", \"machine\": " + machine_json(machine);
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i)
    out += (i ? ", " : "") + json_string(problems[i]);
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out += (first ? "" : ", ") + json_string(name) +
           ": {\"value\": " + json_number(metric.first) +
           ", \"unit\": " + json_string(metric.second) + "}";
    first = false;
  }
  std::vector<double> walls;
  for (const RoundSample& r : untraced.rounds) walls.push_back(r.wall());
  std::vector<double> setups;
  for (const SetupSample& s : untraced.setups) setups.push_back(s.total);
  out += "}, \"round_walls_s\": " + json_array(walls);
  out += ", \"setups_s\": " + json_array(setups);
  out += ", \"traced_rounds\": " + traced_rounds;
  out += ", \"deterministic\": {\"uplink_bytes\": " +
         json_array(untraced.uplink_bytes) +
         ", \"uplink_raw_bytes\": " + json_array(untraced.uplink_raw_bytes) +
         ", \"wire_bytes\": " + json_array(untraced.wire_bytes) +
         ", \"accuracy\": " + json_array(untraced.accuracy) + "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return problems.empty() && failed == 0 ? 0 : 1;
}

}  // namespace roundbench

int main(int argc, char** argv) {
  try {
    return roundbench::main_impl(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "roundbench: %s\n", error.what());
    return 1;
  }
}
