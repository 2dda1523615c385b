#include "trace.h"

#include <cstdio>

namespace perfbench {

int Tracer::open(const std::string& name) {
  SpanRecord r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.point = point_;
  const int idx = static_cast<int>(spans_.size());
  spans_.push_back(std::move(r));
  stack_.push_back(idx);
  spans_[idx].start_ns = now_ns();
  return idx;
}

void Tracer::close(int idx) {
  spans_[idx].end_ns = now_ns();
  stack_.pop_back();
}

std::map<std::string, SpanTotals> Tracer::summarize() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const auto& s : spans_)
    if (s.parent >= 0)
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    auto& t = out[s.name];
    ++t.count;
    t.self_ns += dur - child_ns[i];
    t.items += s.items;
  }
  return out;
}

bool write_chrome(const std::string& path,
                  const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::int64_t t0 = -1;
  for (const Tracer* t : tracers)
    for (const auto& s : t->spans())
      if (t0 < 0 || s.start_ns < t0) t0 = s.start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t tid = 0; tid < tracers.size(); ++tid) {
    const Tracer* t = tracers[tid];
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", tid, t->label().c_str());
    first = false;
    for (const auto& s : t->spans()) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"point\":%lld,"
                   "\"parent\":%d,\"items\":%.17g}}",
                   s.name.c_str(), tid, (s.start_ns - t0) * 1e-3,
                   (s.end_ns - s.start_ns) * 1e-3,
                   static_cast<long long>(s.point), s.parent, s.items);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
