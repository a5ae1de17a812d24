// th_perfbench: runs one benchmark workload and prints its raw
// measurements as one JSON object on the last line of stdout. perfbench/
// run.py builds this binary, reduces the samples to metrics and checks
// them; run it directly only to inspect raw samples:
//
//   th_perfbench --workload factor_grid2d --seed 1 --seconds 10 --trace 0
//                [--size full|smoke] [--out-dir DIR]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using perfbench::Config;
using perfbench::Result;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "th_perfbench: %s\nusage: th_perfbench --workload "
               "<factor_grid2d|suite_sweep|serve_mixed> --seed N --seconds S "
               "--trace 0|1 [--size full|smoke] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

void put_number(std::FILE* f, double v) {
  if (std::isfinite(v)) {
    std::fprintf(f, "%.17g", v);
  } else {
    std::fputs("null", f);
  }
}

void put_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", c);
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

/// VmHWM (peak resident set) of this process in MiB, or -1.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1;
}

void print(const Config& cfg, const Result& r) {
  std::FILE* f = stdout;
  std::fprintf(f, "{\"workload\":");
  put_string(f, cfg.workload);
  std::fprintf(f, ",\"seed\":%llu,\"attempted\":%ld,\"failed\":%ld",
               static_cast<unsigned long long>(cfg.seed), r.attempted,
               r.failed);
  std::fprintf(f, ",\"errors\":[");
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) std::fputc(',', f);
    put_string(f, r.errors[i]);
  }
  std::fprintf(f, "],\"samples\":{");
  bool first = true;
  for (const auto& [name, v] : r.samples) {
    if (!first) std::fputc(',', f);
    first = false;
    put_string(f, name);
    std::fputs(":[", f);
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) std::fputc(',', f);
      put_number(f, v[i]);
    }
    std::fputc(']', f);
  }
  std::fprintf(f, "},\"values\":{");
  first = true;
  for (const auto& [name, v] : r.values) {
    if (!first) std::fputc(',', f);
    first = false;
    put_string(f, name);
    std::fputc(':', f);
    put_number(f, v);
  }
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::fprintf(f, "},\"peak_rss_mib\":");
  put_number(f, peak_rss_mib());
  std::fprintf(f, ",\"env\":{\"compiler\":");
  put_string(f, TH_PERFBENCH_CXX);
  std::fprintf(f, ",\"build_type\":");
  put_string(f, TH_PERFBENCH_BUILD_TYPE);
  std::fprintf(f, ",\"optimized\":%s,\"ndebug\":%s,\"hw_threads\":%u}}\n",
               optimized ? "true" : "false", ndebug ? "true" : "false",
               std::thread::hardware_concurrency());
  std::fflush(f);
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && cfg.seconds > 0;
    } else if (arg == "--trace") {
      cfg.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (arg == "--size") {
      if (val != "full" && val != "smoke") usage("--size must be full or smoke");
      cfg.smoke = val == "smoke";
    } else if (arg == "--out-dir") {
      cfg.out_dir = val;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required and must be valid");
  }
  try {
    Result r;
    if (cfg.workload == "factor_grid2d") {
      r = perfbench::run_factor_grid2d(cfg);
    } else if (cfg.workload == "suite_sweep") {
      r = perfbench::run_suite_sweep(cfg);
    } else if (cfg.workload == "serve_mixed") {
      r = perfbench::run_serve_mixed(cfg);
    } else {
      usage(("unknown workload '" + cfg.workload + "'").c_str());
    }
    print(cfg, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "th_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
