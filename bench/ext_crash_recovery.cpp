// Extension: durable serving crash-recovery gate (DESIGN.md §16).
//
// Drives the crash/restart chaos soak (serve/crash_soak.hpp) over seeded
// client scripts — killing the service at *every* journal-append boundary
// plus one bit-rot drill per scenario — and then measures recovery cost
// directly. The gates hold the durability contract:
//
//   (a) every kill-point recovers: sessions rehydrate with their committed
//       factor tiles bitwise identical to the uninterrupted reference run,
//       zero committed work is lost (every WAL commit record's artifact
//       set still loads and CRC-verifies before restart), and replaying
//       the client script dedups committed requests by idempotency key
//       exactly — predicted from the WAL, not observed loosely;
//   (b) a corrupted factor artifact is quarantined and rebuilt, never
//       loaded — the drill flips one bit in a committed tile and the
//       replay must still converge to the reference bitwise;
//   (c) recovery is fast: rehydrating committed factors from artifacts
//       costs <= 25% of the cold symbolic+numeric re-factorization it
//       replaces — the median recovery/cold ratio over alternated rounds
//       (bench::paired_ratio), each cold round in a fresh journal dir;
//   (d) the th.durable.* registry mirror reconciles with DurableStats
//       exactly, and every restart emits one "recovery" span.
//
// Any violated gate exits 1, so CI can hold the line.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/bench_common.hpp"
#include "gen/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "serve/crash_soak.hpp"
#include "serve/serve.hpp"

using namespace th;
using namespace th::bench;

namespace {

int g_failures = 0;

void gate(bool ok, const char* what) {
  std::printf("  gate: %-58s %s\n", what, ok ? "PASS" : "FAIL");
  if (!ok) ++g_failures;
}

double wall_s(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string scratch(const std::string& leaf) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / leaf).string();
  std::filesystem::remove_all(dir);
  return dir;
}

serve::ServeOptions base_options() {
  serve::ServeOptions o;
  o.sched.n_ranks = 1;
  o.exec_workers = 2;
  return o;
}

}  // namespace

int main() {
  banner("ext: crash/restart recovery",
         "WAL kill-point sweep + bit-rot drill + recovery cost");
  const obs::Session obs_session(true);

  // ---- (c): recovery cost vs cold re-factorization -------------------------
  // Measured before the soak: right after a journal dir (~180 MB of
  // artifacts) is deleted, the disk absorbs the cold side's artifact writes
  // about 3x slower.
  // 3D Laplacian: heavy fill makes the numeric factorization dominate the
  // symbolic phase — the regime where rehydrating committed tiles (instead
  // of re-running the numerics) is the whole point of the artifact store.
  const index_t side = fast_mode() ? 17 : 18;
  const Csr a = finalize_system(grid3d_laplacian(side, side, side), 3);
  serve::ServeOptions durable = base_options();
  durable.durable.fsync = false;

  // One cold factorization: open + factor in a journal dir, then the
  // service dies with one committed factorization there.
  auto cold_factor = [&](const std::string& journal_dir, double* open_s) {
    serve::ServeOptions o = durable;
    o.durable.journal_dir = journal_dir;
    serve::SolverService svc(o);
    const auto t0 = std::chrono::steady_clock::now();
    const serve::SessionId sid = svc.open_session("bench", a);
    *open_s = wall_s(t0);
    serve::Request f;
    f.kind = serve::RequestKind::kFactor;
    f.idem_key = 1;
    svc.submit(sid, f);
    svc.drain();
    return wall_s(t0);
  };
  const std::string dir = scratch("th_crash_recovery_cost");
  double open_s = 0;
  const double first_cold_s = cold_factor(dir, &open_s);
  std::printf("  first cold: %.3fs (open %.3fs), journal kept for recovery\n",
              first_cold_s, open_s);

  serve::ServeOptions rec = durable;
  rec.durable.journal_dir = dir;
  rec.durable.recover = true;

  // Both sides measured with the same statistic: alternated rounds of a
  // cold factorization (each in a fresh journal dir) and a restart that
  // recovers `dir`, gated on the median per-round ratio. The cold dirs are
  // removed only after the last round, for the reason given above.
  bool rehydrated = true;
  std::vector<std::string> cold_dirs;
  auto cold_round = [&] {
    cold_dirs.push_back(
        scratch("th_crash_recovery_cold" + std::to_string(cold_dirs.size())));
    double round_open_s = 0;
    const double s = cold_factor(cold_dirs.back(), &round_open_s);
    std::printf("    cold:     %.3fs (open %.3fs + factor %.3fs)\n", s,
                round_open_s, s - round_open_s);
    return s;
  };
  auto recovery_round = [&] {
    serve::SolverService svc(rec);
    const serve::DurableStats& ds = svc.durable_stats();
    rehydrated = rehydrated && ds.sessions_recovered == 1 &&
                 ds.factors_rehydrated == 1;
    std::printf("    recovery: %.3fs\n", ds.recovery_s);
    return ds.recovery_s;
  };
  // Five rounds in both modes: the cold side's artifact writes swing by 3x
  // with the state of a shared disk.
  const int rounds = 5;
  const PairedRatio pr =
      paired_ratio(cold_round, recovery_round, rounds, /*warmup_pairs=*/0);
  for (const std::string& d : cold_dirs) std::filesystem::remove_all(d);
  std::printf(
      "  %d rounds: best cold %.3fs, best recovery %.3fs, median "
      "recovery/cold %.1f%%\n",
      pr.pairs, pr.best_a, pr.best_b, 100.0 * pr.median_ratio);
  gate(rehydrated, "committed factorization rehydrated on every restart");
  gate(pr.pairs == rounds && pr.median_ratio <= 0.25,
       "recovery wall <= 25% of cold re-factorization (median)");

  // ---- (d): obs reconciliation + the recovery span -------------------------
  // One more restart on a cleared recorder, so the measured rounds' events
  // cannot crowd its span out of the ring.
  obs::Recorder::global().clear();
  serve::SolverService svc(rec);
  const serve::DurableStats& ds = svc.durable_stats();
  ds.publish_metrics();
  obs::Registry& reg = obs::Registry::global();
  const bool reconciled =
      reg.counter("th.durable.replayed").value() ==
          static_cast<std::int64_t>(ds.records_replayed) &&
      reg.counter("th.durable.sessions_recovered").value() ==
          static_cast<std::int64_t>(ds.sessions_recovered) &&
      reg.counter("th.durable.factors_rehydrated").value() ==
          static_cast<std::int64_t>(ds.factors_rehydrated) &&
      reg.counter("th.durable.tiles_rehydrated").value() ==
          static_cast<std::int64_t>(ds.tiles_rehydrated) &&
      reg.counter("th.durable.quarantined").value() ==
          static_cast<std::int64_t>(ds.quarantined) &&
      reg.counter("th.durable.recompute_fallbacks").value() ==
          static_cast<std::int64_t>(ds.recompute_fallbacks);
  gate(reconciled, "obs th.durable.* counters reconcile with DurableStats");

  offset_t recovery_spans = 0;
  for (const obs::Event& e : obs::Recorder::global().events()) {
    if (std::string(e.name) == "recovery") ++recovery_spans;
  }
  gate(recovery_spans == 1, "one \"recovery\" span per restart");
  std::filesystem::remove_all(dir);

  // ---- (a)+(b): the kill-point sweep and corruption drill ------------------
  serve::CrashSoakOptions soak;
  soak.seed = 20260808;
  soak.scenarios = fast_mode() ? 1 : 3;
  soak.dir = scratch("th_crash_recovery_soak");
  soak.serve = base_options();
  const serve::CrashSoakReport rep = serve::run_crash_soak(soak);
  std::printf("  %s\n", rep.summary().c_str());
  for (const serve::CrashSoakFailure& f : rep.failures) {
    std::printf("    FAIL %s: %s\n", f.repro.c_str(), f.what.c_str());
  }
  gate(rep.scenarios_run == soak.scenarios && rep.kill_points > 0,
       "kill-point sweep ran (every append boundary + rot drill)");
  gate(rep.ok() && rep.passed == rep.kill_points,
       "all kill-points: bitwise recovery, no committed work lost");

#ifndef _WIN32
  // One scenario killed by real SIGKILL (fork'd child, nothing unwinds).
  serve::CrashSoakOptions hard = soak;
  hard.seed = 7;
  hard.scenarios = 1;
  hard.dir = scratch("th_crash_recovery_sigkill");
  hard.kill = true;
  const serve::CrashSoakReport hrep = serve::run_crash_soak(hard);
  std::printf("  sigkill: %s\n", hrep.summary().c_str());
  gate(hrep.ok() && hrep.kill_points > 0,
       "process-level SIGKILL death recovers identically");
  std::filesystem::remove_all(hard.dir);
#endif
  std::filesystem::remove_all(soak.dir);

  if (g_failures > 0) {
    std::printf("\n%d gate(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}
