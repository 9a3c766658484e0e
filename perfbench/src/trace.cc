#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t Tracer::Begin(const std::string& name, uint64_t request,
                       uint32_t parent) {
  if (!enabled_) return 0;
  Span s;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::End(uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = NowNs();
}

std::vector<SelfTime> Tracer::SummaryByName() const {
  // Children of one span run sequentially on the recording thread, so the
  // time they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SelfTime> by_name;
  for (const Span& s : spans_) {
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    const int64_t dur = s.end_ns - s.start_ns;
    t.total_ms += dur / 1e6;
    t.self_ms += (dur - child_ns[s.id]) / 1e6;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

std::vector<SelfTime> Tracer::SummaryByModule() const {
  std::map<std::string, SelfTime> by_module;
  for (const SelfTime& t : SummaryByName()) {
    const std::string module = t.name.substr(0, t.name.find('.'));
    SelfTime& m = by_module[module];
    m.name = module;
    m.count += t.count;
    m.total_ms += t.total_ms;
    m.self_ms += t.self_ms;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_module) out.push_back(t);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

namespace {

void WriteSummary(std::FILE* f, const char* key,
                  const std::vector<SelfTime>& rows) {
  std::fprintf(f, ",\n\"%s\": [", key);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"count\": %llu, "
                 "\"total_ms\": %.6f, \"self_ms\": %.6f}",
                 i ? "," : "", rows[i].name.c_str(),
                 static_cast<unsigned long long>(rows[i].count),
                 rows[i].total_ms, rows[i].self_ms);
  }
  std::fprintf(f, "]");
}

}  // namespace

bool Tracer::WriteJson(const std::string& path,
                       const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{%s", header.c_str());
  WriteSummary(f, "self_time_by_module", SummaryByModule());
  WriteSummary(f, "self_time_by_name", SummaryByName());
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, ",\n\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %u, \"parent\": %u, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}",
                 i ? "," : "", s.id, s.parent,
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 (s.start_ns - t0) / 1e3, (s.end_ns - t0) / 1e3);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
