// bench_e2e: the end-to-end benchmark (see e2e.hpp and README.md).
//
//   bench_e2e --workload paper|dense|ingest|ingest_faulted|udp
//             [--seed N] [--seconds S] [--trace 0|1]
//   bench_e2e --smoke
//
// A workload run prints one JSON document as the last line of stdout,
//   {"correct": true, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
// with the end-to-end metrics, or with --trace 1 the per-layer ones, and
// exits 1 when an output check failed. --smoke runs every workload,
// untraced and traced, at a few days' scale and exits 1 on any failure.
// Progress and failed checks go to stderr.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "e2e.hpp"
#include "obs/json.hpp"

using namespace booterscope;

namespace {

constexpr std::string_view kWorkloads[] = {"paper", "dense", "ingest",
                                           "ingest_faulted", "udp"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload paper|dense|ingest|ingest_faulted|udp\n"
               "                 [--seed N] [--seconds S] [--trace 0|1]\n"
               "       bench_e2e --smoke\n",
               why.c_str());
  std::exit(2);
}

template <typename T>
[[nodiscard]] T parse_number(std::string_view flag, std::string_view text) {
  T value{};
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc{} || end != text.data() + text.size()) {
    usage("bad value for --" + std::string(flag) + ": " + std::string(text));
  }
  return value;
}

struct Cli {
  e2e::Options options;
  bool smoke = false;
};

[[nodiscard]] Cli parse(int argc, char** argv) {
  Cli cli;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") usage("unexpected argument " + std::string(arg));
    arg.remove_prefix(2);
    if (arg == "smoke") {
      cli.smoke = true;
      continue;
    }
    std::string_view value;
    if (arg == "trace" && (i + 1 >= argc || argv[i + 1][0] == '-')) {
      value = "1";  // bare --trace
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for --" + std::string(arg));
    }
    if (arg == "workload") {
      bool known = false;
      for (const std::string_view workload : kWorkloads) known |= value == workload;
      if (!known) usage("unknown workload " + std::string(value));
      cli.options.workload = std::string(value);
      have_workload = true;
    } else if (arg == "seed") {
      cli.options.seed = parse_number<std::uint64_t>(arg, value);
    } else if (arg == "seconds") {
      cli.options.seconds = parse_number<double>(arg, value);
      if (!(cli.options.seconds >= 0.0 && cli.options.seconds <= 600.0)) {
        usage("--seconds must be within [0, 600]");
      }
    } else if (arg == "trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      cli.options.trace = value == "1";
    } else {
      usage("unknown flag --" + std::string(arg));
    }
  }
  if (!cli.smoke && !have_workload) usage("--workload is required");
  return cli;
}

[[nodiscard]] e2e::Result run(const e2e::Options& options) {
  if (options.workload == "paper" || options.workload == "dense") {
    return e2e::run_offline(options);
  }
  if (options.workload == "udp") return e2e::run_udp(options);
  return e2e::run_ingest(options);
}

/// Shortest decimal that reads back as the same double.
[[nodiscard]] std::string number(double value) {
  char buffer[32];
  const auto [end, error] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return error == std::errc{} ? std::string(buffer, end) : "null";
}

[[nodiscard]] std::string to_json(const e2e::Result& result) {
  std::string json = "{\"correct\": ";
  json += result.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const e2e::Metric& metric = result.metrics[i];
    if (i > 0) json += ", ";
    json += obs::json_string(metric.name) + ": {\"value\": " +
            number(metric.value) + ", \"unit\": " + obs::json_string(metric.unit) +
            "}";
  }
  json += "}}";
  return json;
}

/// Every metric must be a finite number and every check must hold.
[[nodiscard]] bool report_failures(e2e::Result& result, const std::string& label) {
  for (const e2e::Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.failures.push_back("metric " + metric.name + " is not finite");
    }
  }
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "bench_e2e: %s: check failed: %s\n", label.c_str(),
                 failure.c_str());
  }
  return result.failures.empty();
}

[[nodiscard]] int run_smoke() {
  bool ok = true;
  for (const std::string_view workload : kWorkloads) {
    for (const bool trace : {false, true}) {
      e2e::Options options;
      options.workload = std::string(workload);
      options.seconds = 0.0;
      options.trace = trace;
      options.smoke = true;
      const std::string label =
          options.workload + (trace ? " --trace" : "");
      e2e::Result result = run(options);
      const bool passed = report_failures(result, label);
      ok = ok && passed;
      std::printf("smoke %-24s %s (%zu metrics)\n", label.c_str(),
                  passed ? "ok" : "FAILED", result.metrics.size());
    }
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse(argc, argv);
  try {
    if (cli.smoke) return run_smoke();
    e2e::Result result = run(cli.options);
    const bool ok = report_failures(result, cli.options.workload);
    std::printf("%s\n", to_json(result).c_str());
    return ok ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_e2e: %s\n", error.what());
    return 1;
  }
}
