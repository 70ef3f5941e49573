// gaia_bench: the benchmark of record. Runs the four Gaia workloads at the
// default 300-shop scale through the program's public functions only and
// prints every metric as `workload metric value unit`.
//
//   gaia_bench --workload NAME|all --seed S [--seconds N] [--trace PATH]
//              [--json PATH] [--repeat N] [--smoke] [--workdir DIR]
//
// `all` and `--repeat` re-execute this binary once per run, so every run
// (and its peak_rss_mb) has a process of its own. The exit code is non-zero
// when any output check fails, and for --repeat when any metric spreads
// wider than its bound. See README.md.

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness/stats.h"
#include "workload.h"

namespace gaia::bench {
namespace {

/// End-to-end metrics with their regression bound, as a share of the
/// median; `exact` metrics must repeat bit for bit at a fixed seed. Keep in
/// step with BENCHMARK.json (the smoke test compares the two).
struct Bound {
  const char* name;
  const char* unit;
  double bound;
  bool exact;
};

constexpr Bound kBounds[] = {
    {"setup_s", "s", 0.25, false},
    {"predict_p50_ms", "ms", 0.25, false},
    {"predict_p95_ms", "ms", 0.25, false},
    {"forecasts_per_s", "1/s", 0.25, false},
    {"train_epoch_ms", "ms", 0.25, false},
    {"swap_to_serve_ms", "ms", 0.25, false},
    {"peak_rss_mb", "MiB", 0.10, false},
    {"cycle_s", "s", 0.25, false},
    {"forecast_mae", "GMV", 0.0, true},
    {"degraded_ratio", "ratio", 0.0, true},
    {"failed_ratio", "ratio", 0.0, true},
};

std::string FormatNumber(double value) {
  char buffer[64];
  auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string Hex(uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void PrintReport(const RunReport& report) {
  const std::string& w = report.workload;
  std::cout << w << " correct " << (report.correct ? 1 : 0) << " bool\n"
            << w << " attempted " << report.attempted << " count\n"
            << w << " failed " << report.failed << " count\n"
            << w << " stream_digest " << Hex(report.stream_digest) << " hex\n";
  for (const Metric& metric : report.metrics) {
    std::cout << w << ' ' << metric.name << ' ' << FormatNumber(metric.value)
              << ' ' << metric.unit << '\n';
  }
  for (const std::string& error : report.errors) {
    std::cout << w << " error " << error << '\n';
  }
  std::cout.flush();
}

/// Parses the lines PrintReport writes (a child run's stdout).
bool ParseReport(const std::string& text, RunReport* report) {
  std::istringstream lines(text);
  std::string line;
  bool seen = false;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string workload, name, value, unit;
    if (!(fields >> workload >> name)) continue;
    if (name == "error") {
      std::string rest;
      std::getline(fields, rest);
      report->errors.push_back(rest.empty() ? rest : rest.substr(1));
      continue;
    }
    if (!(fields >> value >> unit)) continue;
    seen = true;
    report->workload = workload;
    if (name == "correct") {
      report->correct = value == "1";
    } else if (name == "attempted") {
      report->attempted = std::stoll(value);
    } else if (name == "failed") {
      report->failed = std::stoll(value);
    } else if (name == "stream_digest") {
      report->stream_digest = std::stoull(value, nullptr, 16);
    } else {
      report->metrics.push_back({name, std::strtod(value.c_str(), nullptr), unit});
    }
  }
  return seen;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

bool WriteJson(const std::string& path, const std::vector<RunReport>& reports,
               uint64_t seed) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"schema\": \"gaia_bench/1\", \"seed\": %llu, \"runs\": [",
               static_cast<unsigned long long>(seed));
  for (size_t r = 0; r < reports.size(); ++r) {
    const RunReport& report = reports[r];
    std::fprintf(file,
                 "%s\n {\"workload\": %s, \"correct\": %s, \"attempted\": %lld, "
                 "\"failed\": %lld, \"stream_digest\": \"%s\", \"errors\": [",
                 r == 0 ? "" : ",", JsonString(report.workload).c_str(),
                 report.correct ? "true" : "false",
                 static_cast<long long>(report.attempted),
                 static_cast<long long>(report.failed),
                 Hex(report.stream_digest).c_str());
    for (size_t e = 0; e < report.errors.size(); ++e) {
      std::fprintf(file, "%s%s", e == 0 ? "" : ", ",
                   JsonString(report.errors[e]).c_str());
    }
    std::fputs("], \"metrics\": {", file);
    for (size_t m = 0; m < report.metrics.size(); ++m) {
      const Metric& metric = report.metrics[m];
      const double value = std::isfinite(metric.value) ? metric.value : 0.0;
      std::fprintf(file, "%s\n  %s: {\"value\": %s, \"unit\": %s}",
                   m == 0 ? "" : ",", JsonString(metric.name).c_str(),
                   FormatNumber(value).c_str(), JsonString(metric.unit).c_str());
    }
    std::fputs("}}", file);
  }
  std::fputs("\n]}\n", file);
  return std::fclose(file) == 0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace;
  std::string json;
  std::string workdir = "gaia_bench_work";
  int repeat = 0;
  bool smoke = false;
};

int Usage(const std::string& problem) {
  std::cerr << "gaia_bench: " << problem << "\n"
            << "usage: gaia_bench --workload NAME|all --seed S [--seconds N] "
               "[--trace PATH] [--json PATH] [--repeat N] [--smoke] "
               "[--workdir DIR]\n"
            << "workloads: online_skewed online_churn batch_sweep "
               "monthly_cycle\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* problem) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      *problem = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    bool valid = true;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      valid = args->seconds >= 0.0 && args->seconds <= 3600.0;
    } else if (flag == "--repeat") {
      args->repeat = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      valid = args->repeat >= 1 && args->repeat <= 1000;
    } else if (flag == "--trace") {
      args->trace = value;
    } else if (flag == "--json") {
      args->json = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      *problem = "unknown flag " + flag;
      return false;
    }
    if (!valid || (end != nullptr && (*end != '\0' || value.empty()))) {
      *problem = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->workload.empty()) {
    *problem = "--workload is required";
    return false;
  }
  Workload ignored;
  if (args->workload != "all" && !ParseWorkload(args->workload, &ignored)) {
    *problem = "unknown workload " + args->workload;
    return false;
  }
  return true;
}

/// `PATH` with `-<workload>` spliced in before its extension, so the traces
/// of an `all` run do not overwrite each other.
std::string PerWorkloadPath(const std::string& path, const std::string& workload) {
  const size_t dot = path.find_last_of('.');
  const size_t slash = path.find_last_of('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "-" + workload;
  }
  return path.substr(0, dot) + "-" + workload + path.substr(dot);
}

/// `text` as one single-quoted shell word.
std::string ShellQuote(const std::string& text) {
  std::string out = "'";
  for (char c : text) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  return out + "'";
}

/// Runs one workload in a fresh process of this binary and parses its report.
RunReport RunChild(const Args& args, const std::string& workload,
                   const std::string& trace) {
  char exe[4096];
  const ssize_t length = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  RunReport report;
  report.workload = workload;
  if (length <= 0) {
    report.correct = false;
    report.errors.push_back("cannot locate own executable");
    return report;
  }
  exe[length] = '\0';
  std::string command = ShellQuote(exe) + " --workload " + workload +
                        " --seed " + std::to_string(args.seed) +
                        " --seconds " + FormatNumber(args.seconds) +
                        " --workdir " + ShellQuote(args.workdir);
  if (args.smoke) command += " --smoke";
  if (!trace.empty()) command += " --trace " + ShellQuote(trace);
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    report.correct = false;
    report.errors.push_back("cannot start " + command);
    return report;
  }
  std::string output;
  char buffer[4096];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, got);
  }
  const int status = ::pclose(pipe);
  if (!ParseReport(output, &report) || status != 0) {
    report.correct = false;
    if (report.errors.empty()) {
      report.errors.push_back("child run exited with status " +
                              std::to_string(status));
    }
  }
  return report;
}

std::vector<std::string> SelectedWorkloads(const Args& args) {
  if (args.workload != "all") return {args.workload};
  std::vector<std::string> names;
  for (Workload workload : AllWorkloads()) names.push_back(WorkloadName(workload));
  return names;
}

/// --repeat N: N fresh runs per workload; each end-to-end metric's median,
/// min, max and (max - min) / median against its bound.
int Repeat(const Args& args) {
  bool within = true;
  std::vector<RunReport> medians;
  for (const std::string& workload : SelectedWorkloads(args)) {
    std::map<std::string, std::vector<double>> values;
    RunReport merged;
    merged.workload = workload;
    for (int r = 0; r < args.repeat; ++r) {
      RunReport run = RunChild(args, workload, "");
      merged.correct = merged.correct && run.correct;
      merged.attempted += run.attempted;
      merged.failed += run.failed;
      merged.stream_digest = run.stream_digest;
      for (const std::string& error : run.errors) merged.errors.push_back(error);
      for (const Metric& metric : run.metrics) values[metric.name].push_back(metric.value);
    }
    std::printf("%-14s %-18s %14s %14s %14s %9s %7s  %s\n", "workload", "metric",
                "median", "min", "max", "spread", "bound", "verdict");
    for (const Bound& bound : kBounds) {
      auto it = values.find(bound.name);
      if (it == values.end()) continue;
      const std::vector<double>& v = it->second;
      double lo = v.front(), hi = v.front();
      for (double x : v) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
      const double median = harness::ComputeStats(v).median;
      const double spread = median != 0.0 ? (hi - lo) / std::fabs(median)
                                          : (hi == lo ? 0.0 : INFINITY);
      const bool ok = bound.exact ? hi == lo : spread <= bound.bound;
      within = within && ok;
      std::printf("%-14s %-18s %14.6g %14.6g %14.6g %9.4f %7s  %s\n",
                  workload.c_str(), bound.name, median, lo, hi, spread,
                  bound.exact ? "exact" : FormatNumber(bound.bound).c_str(),
                  ok ? "ok" : "EXCEEDS");
      merged.metrics.push_back({bound.name, median, bound.unit});
    }
    if (!merged.correct) {
      for (const std::string& error : merged.errors) {
        std::printf("%s error %s\n", workload.c_str(), error.c_str());
      }
    }
    within = within && merged.correct;
    medians.push_back(std::move(merged));
  }
  if (!args.json.empty() && !WriteJson(args.json, medians, args.seed)) {
    std::cerr << "gaia_bench: cannot write " << args.json << "\n";
    return 1;
  }
  return within ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  std::string problem;
  if (!ParseArgs(argc, argv, &args, &problem)) return Usage(problem);
  if (args.repeat > 0) return Repeat(args);

  std::vector<RunReport> reports;
  if (args.workload == "all") {
    for (const std::string& workload : SelectedWorkloads(args)) {
      reports.push_back(RunChild(
          args, workload,
          args.trace.empty() ? "" : PerWorkloadPath(args.trace, workload)));
      PrintReport(reports.back());
    }
  } else {
    RunOptions options;
    ParseWorkload(args.workload, &options.workload);
    options.seed = args.seed;
    options.seconds = args.seconds;
    options.smoke = args.smoke;
    options.trace_path = args.trace;
    options.workdir = args.workdir;
    reports.push_back(RunWorkload(options));
    PrintReport(reports.back());
  }
  if (!args.json.empty() && !WriteJson(args.json, reports, args.seed)) {
    std::cerr << "gaia_bench: cannot write " << args.json << "\n";
    return 1;
  }
  for (const RunReport& report : reports) {
    if (!report.correct) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gaia::bench

int main(int argc, char** argv) { return gaia::bench::Main(argc, argv); }
