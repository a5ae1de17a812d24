#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

int SpanLog::open(const char* layer, int op) {
  Span s;
  s.layer = layer;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op;
  s.t0 = now_s();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].t1 = now_s();
  stack_.pop_back();
}

double Scoped::stop() {
  if (dur_ < 0) {
    dur_ = now_s() - t0_;
    if (id_ >= 0) log_.close(id_);
  }
  return dur_;
}

void Scoped::relabel(const char* layer) {
  if (id_ >= 0) log_.relabel(id_, layer);
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += (spans_[i].t1 - spans_[i].t0) - child[i];
  }
  return out;
}

void SpanLog::write_chrome_trace(const std::string& path,
                                 const std::string& process) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("perfbench: cannot write " + path);
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":\"%s\"}}",
               process.c_str());
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\","
                 "\"cat\":\"layer\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"op\":%d,\"parent\":%d}}",
                 s.layer, s.t0 * 1e6, (s.t1 - s.t0) * 1e6, s.op, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    throw std::runtime_error("perfbench: cannot write " + path);
  }
}

}  // namespace perfbench
