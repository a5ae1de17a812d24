// Benchmark-side spans: one span around each public call the benchmark
// makes into a solver layer. Spans nest on the benchmark's single driving
// thread, so a span's self time is its duration minus its direct
// children's durations. Spans live in memory and are written out as a
// Chrome trace when the run ends.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the process's first call.
double now_s();

struct Span {
  const char* layer = "";  // layer the call goes into, e.g. "order"
  double t0 = 0;
  double t1 = 0;
  int parent = -1;  // index of the enclosing span, -1 = root
  int op = -1;      // operation (request / iteration) the span belongs to
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  bool on() const { return on_; }
  int open(const char* layer, int op);
  void close(int id);
  void relabel(int id, const char* layer) {
    spans_[static_cast<std::size_t>(id)].layer = layer;
  }

  /// Self seconds per layer, summed over every span of that layer.
  std::map<std::string, double> self_seconds() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write_chrome_trace(const std::string& path,
                          const std::string& process) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call. With the log on it is also recorded as a span; with
/// the log off it is only a stopwatch, so the untraced run pays no more
/// than two clock reads per call.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* layer, int op = -1)
      : log_(log), id_(log.on() ? log.open(layer, op) : -1), t0_(now_s()) {}
  ~Scoped() { stop(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  /// End the span (idempotent); returns its duration in seconds.
  double stop();
  /// Name the layer once the call has shown what it did (a serve dispatch
  /// is a refactor or a batched solve only once it has returned).
  void relabel(const char* layer);

 private:
  SpanLog& log_;
  int id_;
  double t0_;
  double dur_ = -1;
};

}  // namespace perfbench
