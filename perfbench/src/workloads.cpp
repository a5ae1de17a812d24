#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <optional>

#include "gen/generators.hpp"
#include "gen/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "order/reorder.hpp"
#include "serve/serve.hpp"
#include "sim/cluster.hpp"
#include "solvers/block_cyclic.hpp"
#include "solvers/driver.hpp"
#include "solvers/refine.hpp"
#include "sparse/ops.hpp"
#include "spans.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace th;

void Result::op(bool ok, const std::string& why) {
  ++attempted;
  if (!ok) {
    ++failed;
    errors.push_back(why);
  }
}

namespace {

constexpr double kResidualLimit = 1e-10;
/// Benchmark-side layer self times must add up to the traced loop's wall
/// time within this share of it.
constexpr double kLayerSumTolerance = 0.02;
/// Set-up is repeated per run (setup_s is the median): cheap set-ups more
/// often, so that a burst of host noise cannot move the median.
constexpr int kGridSetupReps = 25;
constexpr int kSweepSetupReps = 9;
constexpr int kServeSetupReps = 3;
/// Executor lanes for every numeric run. One lane: on a shared 4-vCPU host
/// whose CPUs are taken away for seconds at a time, a 4-lane factorization
/// swung by 2x between runs (every batch waits for its slowest lane and
/// wakes sleeping workers), while single-threaded phases moved by ~10%.
constexpr int kExecLanes = 1;
/// Salts that derive independent streams from the one workload seed.
constexpr std::uint64_t kRhsSalt = 0x5eedb0b5c0ffee01ULL;
constexpr std::uint64_t kTrafficSalt = 0x7a11c0de5eed0002ULL;

/// Run body(i) for about `seconds` (and at least `min_ops` times): a new
/// operation starts only while the loop, on average, would end no later
/// than `seconds` — operations last seconds on some workloads. Returns the
/// loop's wall time.
template <class F>
double timed_loop(double seconds, int min_ops, F&& body) {
  const double t0 = now_s();
  int i = 0;
  for (double t = 0; i < min_ops || t + 0.5 * t / i < seconds; t = now_s() - t0) {
    body(i++);
  }
  return now_s() - t0;
}

std::vector<real_t> random_vector(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> v(static_cast<std::size_t>(n));
  for (real_t& x : v) x = rng.uniform(-1, 1);
  return v;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

bool residual_ok(real_t r) { return std::isfinite(r) && r >= 0 && r <= kResidualLimit; }

std::string fmt(const char* what, double v) {
  return std::string(what) + " = " + std::to_string(v);
}

double counter(const char* name) {
  return static_cast<double>(obs::Registry::global().counter(name).value());
}
double gauge(const char* name) {
  return obs::Registry::global().gauge(name).value();
}

/// Modelled values are deterministic: every repetition in a run must
/// reproduce the first one exactly.
void expect_repeat(Result& res, const char* name, double& first, double v) {
  if (first < 0) {
    first = v;
  } else if (v != first) {
    res.errors.push_back(std::string("modelled ") + name +
                         " changed between repetitions: " +
                         std::to_string(first) + " then " + std::to_string(v));
  }
}

/// Task count and modelled flops per kernel kind, from the task costs.
void add_kernel_tally(Result& out, const TaskGraph& g) {
  static const std::array<const char*, 4> kinds{"getrf", "tstrf", "geesm",
                                                "ssssm"};
  std::array<double, 4> tasks{}, flops{};
  for (const Task& t : g.tasks()) {
    const auto k = static_cast<std::size_t>(t.type);
    tasks[k] += 1;
    flops[k] += static_cast<double>(t.cost.flops);
  }
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    out.add(std::string("kernels.") + kinds[k] + ".tasks", tasks[k]);
    out.add(std::string("kernels.") + kinds[k] + ".flops_model", flops[k]);
  }
}

/// Aggregate-stage and model counters of one or more simulate() calls,
/// read back from the th.* registry (zero unless obs is on).
void add_agg_counters(Result& out, double container_peak) {
  out.add("core.agg.urgent_tasks", counter("th.agg.urgent_tasks"));
  out.add("core.agg.topup_tasks", counter("th.agg.topup_tasks"));
  out.add("core.agg.container_peak", container_peak);
  out.add("core.agg.close_blocks", counter("th.agg.close_blocks"));
  out.add("core.agg.close_shmem", counter("th.agg.close_shmem"));
  out.add("core.agg.close_drained", counter("th.agg.close_drained"));
}

/// max over mean of the modelled per-rank busy time.
double rank_imbalance(const ScheduleResult& r) {
  double mx = 0, sum = 0;
  for (const RankStats& rs : r.stats().ranks) {
    mx = std::max(mx, rs.busy_s);
    sum += rs.busy_s;
  }
  const auto n = static_cast<double>(r.stats().ranks.size());
  return sum > 0 ? mx / (sum / n) : 1.0;
}

void add_exec_stats(Result& out, const exec::ExecStats& e) {
  const double capacity = e.workers * e.wall_s;
  out.add("exec.wall_s", e.wall_s);
  out.add("exec.busy_s", e.busy_s);
  out.add("exec.span_s", e.span_s);
  out.add("exec.idle_s", capacity - e.busy_s);
  out.add("exec.parallel_eff", capacity > 0 ? e.busy_s / capacity : 0);
  out.add("exec.batches", e.batches);
  out.add("exec.slices", static_cast<double>(e.slices));
  out.add("exec.fallback_tasks", static_cast<double>(e.fallback_tasks));
}

/// Runs the untraced loop for the whole budget, or (with tracing) half of
/// it untraced and half traced, then checks and exports the spans.
/// `body(log, out, i)` performs operation i, recording into `out`.
template <class F>
void run_phases(const Config& cfg, int min_ops, Result& res, F&& body) {
  SpanLog off(false);
  const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  res.values["loop_t0_s"] = now_s();
  const double wall = timed_loop(budget, min_ops, [&](int i) {
    body(off, res, i);
  });
  res.values["loop_wall_s"] = wall;
  if (!cfg.trace) return;

  const obs::Session obs_on(true);
  SpanLog log(true);
  Result traced;
  double traced_wall = 0;
  res.values["traced:loop_t0_s"] = now_s();
  {
    Scoped root(log, "bench.loop");
    traced_wall = timed_loop(budget, min_ops, [&](int i) {
      body(log, traced, i);
    });
  }
  // Layer self times, and the check that the layer spans account for the
  // traced loop's wall time: only the gaps between spans (the self time of
  // the loop and per-operation roots) are unattributed.
  double unattributed = 0;
  for (const auto& [layer, s] : log.self_seconds()) {
    res.values["self." + layer + "_s"] = s;
    if (layer == "bench.loop" || layer == "bench.op") unattributed += s;
  }
  res.values["obs.unattributed_share"] = unattributed / traced_wall;
  if (unattributed > kLayerSumTolerance * traced_wall) {
    res.errors.push_back("layer self times cover only " +
                         std::to_string(traced_wall - unattributed) +
                         " s of the traced loop's " +
                         std::to_string(traced_wall) + " s");
  }
  res.values["obs.dropped_events"] =
      static_cast<double>(obs::Recorder::global().dropped());
  res.values["traced:loop_wall_s"] = traced_wall;
  if (!cfg.out_dir.empty()) {
    log.write_chrome_trace(cfg.out_dir + "/" + cfg.workload + "-seed" +
                               std::to_string(cfg.seed) + ".trace.json",
                           "perfbench " + cfg.workload);
  }
  for (auto& [name, v] : traced.samples) {
    auto& dst = res.samples["traced:" + name];
    dst.insert(dst.end(), v.begin(), v.end());
  }
  res.attempted += traced.attempted;
  res.failed += traced.failed;
  res.errors.insert(res.errors.end(), traced.errors.begin(),
                    traced.errors.end());
}

ScheduleOptions a100_single() {
  ScheduleOptions so;
  so.cluster = single_gpu(device_a100());
  so.n_ranks = 1;
  return so;
}

ScheduleOptions cluster_ranks(int ranks, const DeviceSpec& gpu) {
  ScheduleOptions so;
  so.cluster = cluster_h100();
  so.cluster.gpu = gpu;
  so.n_ranks = ranks;
  return so;
}

}  // namespace

// ---- factor_grid2d -------------------------------------------------------

Result run_factor_grid2d(const Config& cfg) {
  const index_t nx = cfg.smoke ? 24 : 120;
  const index_t tile = cfg.smoke ? 16 : 64;
  const int ranks = 4;
  Result res;

  Csr a;
  std::vector<real_t> b;
  for (int k = 0; k < kGridSetupReps; ++k) {
    const double t0 = now_s();
    a = finalize_system(grid2d_laplacian(nx, nx), cfg.seed);
    b = spmv(a, random_vector(a.n_rows, cfg.seed ^ kRhsSalt));
    res.add("setup_s", now_s() - t0);
  }

  ScheduleOptions so = cluster_ranks(ranks, device_a100());
  so.policy = Policy::kTrojanHorse;
  so.exec.workers = kExecLanes;
  so.exec.accum = exec::AccumMode::kAtomic;
  so.validate();
  res.values["exec_workers"] = so.exec.workers;

  double model_ms = -1;
  run_phases(cfg, 1, res, [&](SpanLog& log, Result& out, int i) {
    try {
      Scoped op(log, "bench.op", i);
      if (log.on()) obs::Registry::global().reset_values();
      Scoped ord(log, "order", i);
      InstanceOptions io;
      io.core = SolverCore::kPlu;
      io.block = tile;
      io.grid = make_process_grid(ranks);
      io.preordered = min_degree_order(a);
      const double t_order = ord.stop();

      Scoped sym(log, "symbolic", i);
      // Held optionally so that freeing the factors is timed in its own span.
      std::optional<SolverInstance> held(std::in_place, a, io);
      SolverInstance& inst = *held;
      const double t_sym = sym.stop();

      Scoped fac(log, "core.numeric", i);
      const ScheduleResult r = inst.run_numeric(so);
      const double t_fac = fac.stop();
      out.op(true, "");

      Scoped tri(log, "trisolve", i);
      const std::vector<real_t> x = inst.solve(b);
      const double t_sol = tri.stop();

      Scoped chk(log, "bench.check", i);
      const real_t resid = scaled_residual(a, x, b);
      out.op(residual_ok(resid), fmt("grid solve scaled residual", resid));
      chk.stop();

      Scoped ref(log, "refine", i);
      const RefineReport rr = iterative_refinement(inst, b);
      ref.stop();
      out.op(residual_ok(rr.final_residual()),
             fmt("grid refined scaled residual", rr.final_residual()));

      Scoped book(log, "bench.stats", i);
      out.add("order.wall_s", t_order);
      out.add("symbolic.wall_s", t_sym);
      out.add("analyze_s", t_order + t_sym);
      out.add("factor_s", t_fac);
      out.add("solve_s", t_sol);
      out.add("op_ms", t_fac * 1e3);
      out.add("ops_per_s", 1.0 / (t_order + t_sym + t_fac + t_sol));
      out.add("trisolve.wall_s", t_sol);
      out.add("refine.iterations", rr.iterations());
      const TaskGraph& g = inst.graph();
      out.add("symbolic.tasks", static_cast<double>(g.size()));
      out.add("symbolic.nnz_lu", static_cast<double>(inst.nnz_lu()));
      out.add("symbolic.levels", g.level_count());
      add_kernel_tally(out, g);

      const exec::ExecStats& e = r.stats().exec;
      add_exec_stats(out, e);
      out.add("core.numeric_overhead_s", t_fac - e.wall_s);
      if (e.wall_s > t_fac) {
        out.errors.push_back("exec.wall_s " + std::to_string(e.wall_s) +
                             " exceeds the run_numeric span " +
                             std::to_string(t_fac));
      }
      out.add("kernels.host_gflops",
              e.wall_s > 0 ? static_cast<double>(g.total_flops()) / e.wall_s / 1e9
                           : 0);
      out.add("core.kernels", static_cast<double>(r.kernel_count));
      out.add("core.mean_batch_size", r.mean_batch_size);
      out.add("sim.comm_bytes", static_cast<double>(r.comm_bytes));
      out.add("sim.comm_messages", static_cast<double>(r.comm_messages));
      out.add("sim.rank_busy_imbalance", rank_imbalance(r));
      out.add("sim.model_makespan_ms", r.makespan_s * 1e3);
      expect_repeat(out, "makespan", model_ms, r.makespan_s * 1e3);
      if (log.on()) add_agg_counters(out, gauge("th.agg.container_peak"));
      book.stop();
      Scoped teardown(log, "bench.teardown", i);
      held.reset();
    } catch (const std::exception& ex) {
      out.op(false, std::string("grid operation threw: ") + ex.what());
    }
  });
  res.values["sim.model_makespan_ms"] = model_ms;
  return res;
}

// ---- suite_sweep ---------------------------------------------------------

namespace {

struct Variant {
  const char* label;
  SolverCore core;
  Policy policy;
};

// The six solver variants of the paper's evaluation (§4.1).
const std::array<Variant, 6> kVariants{{
    {"PaStiX(dmdas)", SolverCore::kSlu, Policy::kDmdas},
    {"SuperLU", SolverCore::kSlu, Policy::kLevelPerTask},
    {"SuperLU+TH", SolverCore::kSlu, Policy::kTrojanHorse},
    {"PanguLU", SolverCore::kPlu, Policy::kPriorityPerTask},
    {"PanguLU+stream", SolverCore::kPlu, Policy::kMultiStream},
    {"PanguLU+TH", SolverCore::kPlu, Policy::kTrojanHorse},
}};

}  // namespace

Result run_suite_sweep(const Config& cfg) {
  // Smoke size: the three smallest stand-ins.
  std::vector<const PaperMatrix*> mats;
  for (const PaperMatrix& pm : paper_matrices()) {
    if (!cfg.smoke || pm.name == "audikw_1" || pm.name == "Serena" ||
        pm.name == "Ga41As41H72") {
      mats.push_back(&pm);
    }
  }
  Result res;

  // Registry structures are fixed; the seed draws their values.
  std::vector<Csr> inputs;
  for (int k = 0; k < kSweepSetupReps; ++k) {
    const double t0 = now_s();
    inputs.clear();
    for (std::size_t m = 0; m < mats.size(); ++m) {
      inputs.push_back(finalize_system(mats[m]->make(), cfg.seed * 31 + m));
    }
    res.add("setup_s", now_s() - t0);
  }

  const ScheduleOptions machines[2] = {a100_single(),
                                       cluster_ranks(4, device_h100())};
  double speedup_first[2] = {-1, -1};
  run_phases(cfg, 1, res, [&](SpanLog& log, Result& out, int pass) {
    Scoped op(log, "bench.op", pass);
    if (log.on()) obs::Registry::global().reset_values();
    double tasks_replayed = 0, container_peak = 0;
    double tasks = 0, nnz_lu = 0, levels = 0, comm_bytes = 0, comm_msgs = 0;
    double kernels = 0, imbalance = 0;
    // log-sum of per-matrix modelled speedups, PLU then SLU.
    double log_speedup[2] = {0, 0};
    int analysed = 0;
    for (std::size_t m = 0; m < inputs.size(); ++m) {
      try {
        Scoped ord(log, "order", pass);
        InstanceOptions io;
        io.preordered = min_degree_order(inputs[m]);
        out.add("call.order." + std::to_string(m), ord.stop());

        Scoped sym(log, "symbolic", pass);
        io.core = SolverCore::kSlu;
        io.block = 40;
        SolverInstance slu(inputs[m], io);
        io.core = SolverCore::kPlu;
        io.block = 128;
        SolverInstance plu(inputs[m], io);
        out.add("call.symbolic." + std::to_string(m), sym.stop());
        out.op(true, "");
        ++analysed;
        for (const SolverInstance* inst : {&slu, &plu}) {
          tasks += inst->graph().size();
          nnz_lu += static_cast<double>(inst->nnz_lu());
          levels += inst->graph().level_count();
        }

        double a100_makespan[6] = {};
        for (std::size_t v = 0; v < kVariants.size(); ++v) {
          SolverInstance& inst = kVariants[v].core == SolverCore::kSlu ? slu : plu;
          for (int mc = 0; mc < 2; ++mc) {
            ScheduleOptions opt = machines[mc];
            opt.policy = kVariants[v].policy;
            Scoped rep(log, "core.replay", pass);
            inst.set_grid(make_process_grid(opt.n_ranks));
            const ScheduleResult r = inst.run_timing(opt);
            out.add("call.replay." + std::to_string(m) + "." + std::to_string(v) +
                        "." + std::to_string(mc),
                    rep.stop());
            tasks_replayed += inst.graph().size();
            const bool ok = std::isfinite(r.makespan_s) && r.makespan_s > 0 &&
                            r.kernel_count > 0;
            out.op(ok, std::string("replay of ") + kVariants[v].label + " on " +
                           mats[m]->name + " gave makespan " +
                           std::to_string(r.makespan_s));
            if (mc == 0) a100_makespan[v] = r.makespan_s;
            kernels += static_cast<double>(r.kernel_count);
            comm_bytes += static_cast<double>(r.comm_bytes);
            comm_msgs += static_cast<double>(r.comm_messages);
            if (mc == 1) imbalance = std::max(imbalance, rank_imbalance(r));
            if (log.on() && kVariants[v].policy == Policy::kTrojanHorse) {
              container_peak = std::max(container_peak, gauge("th.agg.container_peak"));
            }
          }
        }
        // Figure 10: modelled ±TH on one A100 (PanguLU / PanguLU+TH and
        // SuperLU / SuperLU+TH).
        log_speedup[0] += std::log(a100_makespan[3] / a100_makespan[5]);
        log_speedup[1] += std::log(a100_makespan[1] / a100_makespan[2]);
      } catch (const std::exception& ex) {
        out.op(false, mats[m]->name + ": sweep operation threw: " + ex.what());
      }
    }
    Scoped book(log, "bench.stats", pass);
    out.add("replay.tasks", tasks_replayed);
    out.add("symbolic.tasks", tasks);
    out.add("symbolic.nnz_lu", nnz_lu);
    out.add("symbolic.levels", levels);
    out.add("core.kernels", kernels);
    out.add("core.mean_batch_size", kernels > 0 ? tasks_replayed / kernels : 0);
    out.add("sim.comm_bytes", comm_bytes);
    out.add("sim.comm_messages", comm_msgs);
    out.add("sim.rank_busy_imbalance", imbalance);
    if (analysed > 0) {
      const char* names[2] = {"sim.model_speedup_plu", "sim.model_speedup_slu"};
      for (int c = 0; c < 2; ++c) {
        const double s = std::exp(log_speedup[c] / analysed);
        out.add(names[c], s);
        expect_repeat(out, names[c], speedup_first[c], s);
      }
    }
    if (log.on()) add_agg_counters(out, container_peak);
  });
  res.values["sim.model_speedup_plu"] = speedup_first[0];
  res.values["sim.model_speedup_slu"] = speedup_first[1];

  // Pass totals add up many short calls, so a burst of host noise inflates
  // whole passes. Instead each call's median over the passes is taken and
  // the medians are summed: one pass, with the noise discarded call by call.
  for (const std::string phase : {"", "traced:"}) {
    const auto total = [&](const std::string& call) {
      double sum = 0, calls = 0;
      const std::string prefix = phase + "call." + call + ".";
      for (const auto& [name, v] : res.samples) {
        if (name.rfind(prefix, 0) != 0) continue;
        sum += median(v);
        calls += 1;
      }
      return std::pair{sum, calls};
    };
    const double order = total("order").first;
    const double symbolic = total("symbolic").first;
    const auto [replay, n_replay] = total("replay");
    if (n_replay == 0) continue;
    const auto it = res.samples.find(phase + "replay.tasks");
    const double tasks = it == res.samples.end() ? 0 : median(it->second);
    const double passes = static_cast<double>(it == res.samples.end() ? 0 : it->second.size());
    const auto put = [&](const char* name, double v) {
      res.values[phase + name] = v;
      res.values["n:" + phase + name] = passes;
    };
    put("order.wall_s", order);
    put("symbolic.wall_s", symbolic);
    put("analyze_s", order + symbolic);
    put("sweep_s", replay);
    put("core.replay_s", replay);
    put("op_ms", replay * 1e3);
    put("ops_per_s", n_replay / replay);
    put("core.replay_tasks_per_s", tasks / replay);
  }
  for (auto it = res.samples.begin(); it != res.samples.end();) {
    it = it->first.find("call.") != std::string::npos ? res.samples.erase(it) : std::next(it);
  }
  return res;
}

// ---- serve_mixed ---------------------------------------------------------

namespace {

constexpr int kOutstanding = 16;
/// Every 20th request is a refactor (fresh values); the rest are solves.
/// The seed picks each request's session.
constexpr int kRefactorOneIn = 20;

struct SessionInfo {
  serve::SessionId id = -1;
  Csr a0;
  std::uint64_t seed = 0;  // values seed of the last refactor; 0 = a0
};

struct Served {
  std::unique_ptr<serve::SolverService> svc;
  std::vector<SessionInfo> sessions;
};

serve::ServeOptions serve_options() {
  serve::ServeOptions opt;
  opt.sched = a100_single();
  opt.sched.policy = Policy::kTrojanHorse;
  opt.exec_workers = kExecLanes;
  opt.rhs.max_width = 16;
  opt.max_queued_global = 4 * kOutstanding;
  opt.max_queued_per_tenant = 4 * kOutstanding;
  opt.shed_on_full = false;
  return opt;
}

/// Completed requests per second as a median-able series: one sample per
/// kRateWindowS window of the loop, the last partial window dropped (a
/// loop shorter than one window gives one sample over its whole length).
void add_window_rates(Result& res, const std::string& phase) {
  constexpr double kRateWindowS = 3.0;
  const auto done = res.samples.find(phase + "completed");
  const auto t0 = res.values.find(phase + "loop_t0_s");
  if (done == res.samples.end() || t0 == res.values.end()) return;
  const double wall = res.values[phase + "loop_wall_s"];
  const auto windows = static_cast<std::size_t>(wall / kRateWindowS);
  if (windows == 0) {
    res.add(phase + "ops_per_s", static_cast<double>(done->second.size()) / wall);
    return;
  }
  std::vector<double> count(windows, 0.0);
  for (const double t : done->second) {
    const auto w = static_cast<std::size_t>((t - t0->second) / kRateWindowS);
    if (w < windows) count[w] += 1;
  }
  for (const double c : count) res.add(phase + "ops_per_s", c / kRateWindowS);
}

/// Build the service, open two sessions per stand-in (the first misses the
/// symbolic cache, the second hits it) and factor every session.
Served serve_setup(const Config& cfg, const std::vector<Csr>& patterns,
                   Result& res) {
  Served s;
  s.svc = std::make_unique<serve::SolverService>(serve_options());
  double miss_total = 0;
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    for (int copy = 0; copy < 2; ++copy) {
      SessionInfo si;
      si.a0 = finalize_system(patterns[p], cfg.seed * 7 + p * 2 + copy);
      const offset_t misses = s.svc->stats().cache_misses;
      const double t0 = now_s();
      si.id = s.svc->open_session("bench", si.a0);
      const double t_open = now_s() - t0;
      if (s.svc->stats().cache_misses > misses) {
        const SolverInstance* inst = s.svc->session_instance(si.id);
        res.add("serve.open_miss_s", t_open);
        miss_total += t_open;
        res.add("order.wall_s", inst->reorder_seconds());
        res.add("symbolic.wall_s", inst->symbolic_seconds());
        res.add("symbolic.tasks", inst->graph().size());
        res.add("symbolic.nnz_lu", static_cast<double>(inst->nnz_lu()));
        res.add("symbolic.levels", inst->graph().level_count());
      } else {
        res.add("serve.open_hit_s", t_open);
      }
      s.sessions.push_back(std::move(si));
    }
  }
  res.add("analyze_s", miss_total);
  for (const SessionInfo& si : s.sessions) {
    serve::Request f;
    f.kind = serve::RequestKind::kFactor;
    s.svc->submit(si.id, f);
  }
  for (const serve::Completion& c : s.svc->drain()) {
    res.op(c.ok(), std::string("initial factor ended ") +
                       serve::completion_status_name(c.status) + ": " + c.detail);
  }
  return s;
}

}  // namespace

Result run_serve_mixed(const Config& cfg) {
  const std::array<const char*, 3> names = {"Lin", "Serena", "nlpkkt80"};
  Result res;

  // The setup's first step (pattern generation) is part of setup_s.
  Served served;
  for (int k = 0; k < kServeSetupReps; ++k) {
    served = Served{};  // tear the previous service down outside the clock
    const double t0 = now_s();
    std::vector<Csr> patterns;
    for (const char* n : names) {
      patterns.push_back(cfg.smoke ? grid3d_laplacian(5 +
                                         static_cast<index_t>(patterns.size()), 5, 5)
                                   : paper_matrix(n).make());
    }
    Result setup_rec;
    served = serve_setup(cfg, patterns, setup_rec);
    res.add("setup_s", now_s() - t0);
    // Keep one set of per-session open timings per setup.
    for (auto& [name, v] : setup_rec.samples) {
      auto& dst = res.samples[name];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    res.attempted += setup_rec.attempted;
    res.failed += setup_rec.failed;
    res.errors.insert(res.errors.end(), setup_rec.errors.begin(),
                      setup_rec.errors.end());
  }
  serve::SolverService& svc = *served.svc;
  std::vector<SessionInfo>& sessions = served.sessions;

  Rng traffic(cfg.seed ^ kTrafficSalt);
  std::map<serve::RequestId, double> submitted_at;  // outstanding requests
  long submitted = 0;

  // One loop iteration tops the closed loop up to kOutstanding requests,
  // lets the service dispatch once and collects what completed.
  const auto step = [&](SpanLog& log, Result& out, int i) {
    {
      Scoped sub(log, "serve.submit", i);
      while (static_cast<int>(submitted_at.size()) < kOutstanding) {
        const std::size_t si = traffic.next_below(sessions.size());
        serve::Request req;
        req.kind = ++submitted % kRefactorOneIn == 0
                       ? serve::RequestKind::kRefactor
                       : serve::RequestKind::kSolve;
        req.value_seed = traffic.next_u64() | 1;
        try {
          const serve::RequestId id = svc.submit(sessions[si].id, req);
          submitted_at[id] = now_s();
          if (req.kind == serve::RequestKind::kRefactor) {
            sessions[si].seed = req.value_seed;
          }
        } catch (const std::exception& ex) {
          out.op(false, std::string("submit rejected: ") + ex.what());
        }
      }
    }
    Scoped disp(log, "serve.dispatch", i);
    svc.advance(std::nextafter(svc.now_s(), std::numeric_limits<double>::infinity()));
    std::vector<serve::Completion> done = svc.take_completions();
    const double t_done = now_s();
    disp.stop();
    bool refactor = false;
    for (const serve::Completion& c : done) refactor |= c.kind == serve::RequestKind::kRefactor;
    disp.relabel(refactor ? "serve.refactor" : "rhs.solve");

    Scoped chk(log, "bench.check", i);
    for (const serve::Completion& c : done) {
      const auto it = submitted_at.find(c.id);
      if (it == submitted_at.end()) {
        out.op(false, "completion for a request that is not outstanding");
        continue;
      }
      const double lat_ms = (t_done - it->second) * 1e3;
      submitted_at.erase(it);
      bool ok = c.ok();
      if (c.kind == serve::RequestKind::kSolve) {
        ok = ok && residual_ok(c.residual);
        out.add("solve_ms", lat_ms);
      } else {
        out.add("refactor_ms", lat_ms);
      }
      out.add("op_ms", lat_ms);
      out.add("completed", t_done);
      out.op(ok, std::string(serve::request_kind_name(c.kind)) + " ended " +
                     serve::completion_status_name(c.status) + " with residual " +
                     std::to_string(c.residual) + " " + c.detail);
    }
  };

  // The rhs/serve counters are reported over the traced loop only.
  serve::ServeStats before = svc.stats();
  rhs::RhsStats rhs_before = svc.rhs_stats();
  run_phases(cfg, 1, res, [&](SpanLog& log, Result& out, int i) {
    if (log.on() && i == 0) {
      before = svc.stats();
      rhs_before = svc.rhs_stats();
    }
    step(log, out, i);
  });
  const serve::ServeStats st = svc.stats();
  const rhs::RhsStats rs = svc.rhs_stats();
  for (const std::string phase : {"", "traced:"}) add_window_rates(res, phase);
  if (cfg.trace) {
    // The traced loop ran with obs on, so the registry holds its totals:
    // refactors and block solves both run through simulate() and the
    // batch executor. Report them per completed request.
    const double n = static_cast<double>(res.samples["traced:completed"].size());
    const auto per_request = [&](const char* name, double total) {
      res.values[name] = n > 0 ? total / n : 0;
    };
    const double workers = serve_options().exec_workers;
    const double wall = gauge("th.exec.wall_s");
    const double busy = gauge("th.exec.busy_s");
    per_request("exec.wall_s", wall);
    // Host time of the dispatches outside the executor, and of the batched
    // block solves, from the benchmark-side spans.
    per_request("core.numeric_overhead_s", res.values["self.serve.refactor_s"] +
                                               res.values["self.rhs.solve_s"] - wall);
    const double solves = static_cast<double>(res.samples["traced:solve_ms"].size());
    res.values["trisolve.wall_s"] = solves > 0 ? res.values["self.rhs.solve_s"] / solves : 0;
    per_request("exec.busy_s", busy);
    per_request("exec.span_s", gauge("th.exec.span_s"));
    per_request("exec.idle_s", workers * wall - busy);
    res.values["exec.parallel_eff"] = wall > 0 ? busy / (workers * wall) : 0;
    per_request("exec.batches", counter("th.exec.batches"));
    per_request("exec.slices", counter("th.exec.slices"));
    per_request("exec.fallback_tasks", counter("th.exec.fallback_tasks"));
    per_request("core.kernels", counter("th.sched.kernels"));
    res.values["core.mean_batch_size"] =
        counter("th.sched.kernels") > 0
            ? counter("th.sched.tasks") / counter("th.sched.kernels")
            : 0;
    per_request("sim.comm_bytes", counter("th.sched.comm_bytes"));
    per_request("sim.comm_messages", counter("th.sched.comm_messages"));
    per_request("core.agg.urgent_tasks", counter("th.agg.urgent_tasks"));
    per_request("core.agg.topup_tasks", counter("th.agg.topup_tasks"));
    per_request("core.agg.close_blocks", counter("th.agg.close_blocks"));
    per_request("core.agg.close_shmem", counter("th.agg.close_shmem"));
    per_request("core.agg.close_drained", counter("th.agg.close_drained"));
    res.values["core.agg.container_peak"] = gauge("th.agg.container_peak");
  }

  // Finish the outstanding requests (untimed) so every one is checked.
  for (const serve::Completion& c : svc.drain()) {
    res.op(submitted_at.erase(c.id) == 1 && c.ok() && (c.kind != serve::RequestKind::kSolve || residual_ok(c.residual)),
           std::string("drained request ended ") + serve::completion_status_name(c.status));
  }

  // Independent check of each session's final factors: the instance holds
  // exactly the values the benchmark asked for and solves a fresh system.
  for (std::size_t si = 0; si < sessions.size(); ++si) {
    const SessionInfo& s = sessions[si];
    const SolverInstance* inst = svc.session_instance(s.id);
    const Csr expect = s.seed == 0 ? s.a0 : finalize_system(s.a0, s.seed);
    bool ok = inst != nullptr && inst->matrix().values == expect.values;
    real_t resid = -1;
    if (ok) {
      const std::vector<real_t> bb =
          spmv(expect, random_vector(expect.n_rows, cfg.seed + si));
      resid = scaled_residual(expect, inst->solve(bb), bb);
      ok = residual_ok(resid);
    }
    res.op(ok, "session " + std::to_string(si) + " final factors: residual " +
                   std::to_string(resid));
  }

  res.values["serve.cache_hit_rate"] = st.cache_hit_rate();
  res.values["serve.queue_high_water"] = static_cast<double>(st.queue_high_water);
  res.values["serve.shed"] = static_cast<double>(st.shed - before.shed);
  const double batches = static_cast<double>(rs.batches - rhs_before.batches);
  res.values["rhs.batches"] = batches;
  res.values["rhs.mean_width"] =
      batches > 0 ? static_cast<double>(rs.solved - rhs_before.solved) / batches : 0;
  res.values["rhs.widest_batch"] = static_cast<double>(rs.widest_batch);
  res.values["rhs.dag_builds"] = static_cast<double>(rs.dag_builds - rhs_before.dag_builds);
  res.values["rhs.dag_reuses"] = static_cast<double>(rs.dag_reuses - rhs_before.dag_reuses);
  return res;
}

}  // namespace perfbench
