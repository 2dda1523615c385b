#pragma once
// In-memory span recorder for the traced benchmark run. Spans are opened and
// closed by the benchmark's own code around each call into a simulator
// layer; they nest in stack order on the one benchmark thread. Nothing is
// written until the run ends (write_chrome), so the timed code only pays a
// clock read and a vector push per span.
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;          ///< index of the enclosing span, -1 at top level
  std::int64_t point = -1;  ///< design-point id (-1 outside any point)
  double items = 0;         ///< work units the span covers (ops, MACs, samples)
};

/// Per-name aggregate. Self time is each span's duration minus the time its
/// direct child spans cover (children nest, so they never overlap).
struct SpanTotals {
  std::uint64_t count = 0;
  double self_ns = 0;
  double items = 0;

  double mean_ms() const { return count ? self_ns / count * 1e-6 : 0.0; }
  double ns_per_item() const { return items > 0 ? self_ns / items : 0.0; }
};

class Tracer {
 public:
  explicit Tracer(std::string label) : label_(std::move(label)) {}

  int open(const std::string& name);
  void close(int idx);
  void set_items(int idx, double items) { spans_[idx].items = items; }
  void set_point(std::int64_t id) { point_ = id; }

  const std::string& label() const { return label_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::map<std::string, SpanTotals> summarize() const;

 private:
  std::string label_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  std::int64_t point_ = -1;
};

/// RAII span; a null tracer makes it a no-op, which is the untraced path.
class Span {
 public:
  Span(Tracer* t, const std::string& name)
      : t_(t), idx_(t ? t->open(name) : -1) {}
  ~Span() {
    if (t_) t_->close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void items(double n) {
    if (t_) t_->set_items(idx_, n);
  }

 private:
  Tracer* t_;
  int idx_;
};

/// Writes every tracer's spans as one Chrome trace-event JSON document (one
/// thread row per tracer), loadable offline in Perfetto or chrome://tracing.
bool write_chrome(const std::string& path,
                  const std::vector<const Tracer*>& tracers);

}  // namespace perfbench
