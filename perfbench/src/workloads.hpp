// The benchmark's three workloads. Each one generates its inputs from the
// seed, times its public calls into the solver layers with tracing off,
// and (with tracing on) repeats the loop to collect per-layer numbers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;   // tiny inputs for the benchmark's own tests
  std::string out_dir;  // where the traced run writes its Chrome trace
};

/// Raw measurements. `samples` hold every observation of a quantity (host
/// seconds unless the name says otherwise); `values` hold quantities that
/// are measured once per run. The caller reduces samples to medians and
/// percentiles.
struct Result {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  long attempted = 0;
  long failed = 0;
  /// Failed correctness checks, one line each; non-empty = incorrect run.
  std::vector<std::string> errors;

  void add(const std::string& name, double v) { samples[name].push_back(v); }
  /// Count one operation; `ok == false` also records `why`.
  void op(bool ok, const std::string& why);
};

Result run_factor_grid2d(const Config& cfg);
Result run_suite_sweep(const Config& cfg);
Result run_serve_mixed(const Config& cfg);

}  // namespace perfbench
