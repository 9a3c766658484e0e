// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around calls into each
// module's public functions (never from inside the engine). Every span has
// a name ("<module>.<what>"), start and end on one steady clock, the span
// that caused it (0 = root) and the request it belongs to (0 = not a
// request). Spans stay in memory and are written once, at exit. A disabled
// tracer records nothing, so the untraced run pays one branch per span.
//
// Not thread-safe: only the benchmark's single load-generator thread
// records spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root
  uint64_t request = 0;  ///< 0 = not part of a request
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per span name: how many spans, their total duration, and their self
/// time (duration minus the time their child spans cover).
struct SelfTime {
  std::string name;
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Switch recording on or off (the traced run measures an untraced
  /// phase first, for the tracing overhead).
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span; returns its id (0 when tracing is off).
  uint32_t Begin(const std::string& name, uint64_t request, uint32_t parent);
  /// Close span `id` (no-op for 0).
  void End(uint32_t id);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, const std::string& name, uint64_t request = 0,
          uint32_t parent = 0)
        : tracer_(t), id_(t.Begin(name, request, parent)) {}
    ~Scope() { tracer_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint32_t id() const { return id_; }

   private:
    Tracer& tracer_;
    uint32_t id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self-time summary per span name, sorted by descending self time.
  std::vector<SelfTime> SummaryByName() const;
  /// The same, aggregated per module (the name's prefix before the first
  /// '.'; names without a dot are their own module).
  std::vector<SelfTime> SummaryByModule() const;

  /// Write every span plus both summaries as one JSON document.
  /// `header` is a JSON object body (without braces) placed first.
  bool WriteJson(const std::string& path, const std::string& header) const;

 private:
  static int64_t NowNs();

  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
