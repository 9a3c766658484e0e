// The repo benchmark: drives engine::Session with seeded inputs under a
// closed-loop load generator, checks every result against an oracle, and
// prints every metric by name with its unit. See ../README.md.
//
//   avm_perfbench --workload q1_repeat --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced pass
// (untraced half, traced half, per-layer probes) and prints the per-layer
// metrics. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The process exits nonzero when any result was wrong or errored.
#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace engine = avm::engine;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

int ChildProcesses() {
  const long self = static_cast<long>(getpid());
  int n = 0;
  DIR* d = opendir("/proc");
  if (d == nullptr) return 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream f(std::string("/proc/") + e->d_name + "/stat");
    std::string stat;
    std::getline(f, stat);
    // Field 4 (ppid) follows the parenthesized command name.
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    char state = 0;
    long ppid = 0;
    if (std::sscanf(stat.c_str() + close + 1, " %c %ld", &state, &ppid) == 2 &&
        ppid == self) {
      ++n;
    }
  }
  closedir(d);
  return n;
}

RequestCounters::RequestCounters(const engine::ExecReport& e)
    : wall_seconds(e.wall_seconds),
      morsels(e.morsels),
      bytes_spilled(e.bytes_spilled),
      spill_runs(e.spill_runs),
      peak_tracked_bytes(e.peak_tracked_bytes),
      traces_compiled(e.traces_compiled),
      traces_reused(e.traces_reused),
      tier_upgrades_requested(e.tier_upgrades_requested),
      injection_runs(e.injection_runs),
      injection_fallbacks(e.injection_fallbacks),
      fast_compiles(e.fast_compiles),
      opt_compiles(e.opt_compiles),
      fast_compile_seconds(e.fast_compile_seconds),
      opt_compile_seconds(e.opt_compile_seconds),
      jit_declined(!e.jit_declined.empty()) {}

bool Harness::CheckRequest(uint64_t i, const engine::Query& q) {
  Tracer::Scope span(*tracer, "oracle.check", i + 1);
  const bool corrupt_this = corrupt;
  corrupt = false;
  CheckResult c = workload->Check(i, q, corrupt_this);
  tally.f64_inexact += c.f64_inexact;
  if (!c.ok) tally.Fail(c.error);
  return c.ok;
}

namespace {

/// One request from the start of Build() until its oracle check.
struct Request {
  uint64_t id = 0;
  uint32_t span = 0;       ///< "client.request"
  uint32_t wait_span = 0;  ///< "engine.wait"
  Clock::time_point start;
  std::unique_ptr<engine::Query> query;
  engine::QueryHandle handle;
  avm::Status build_error;
  Sample sample;
};

/// Build and submit request `id`. Its root span "client.request" covers
/// Build() to the completion of the request, with children "engine.build",
/// "engine.submit" and "engine.wait"; with several requests in flight its
/// self time is time the client took to notice a completion.
Request Issue(Harness& h, engine::Session& s, uint64_t id,
              uint32_t parent_span) {
  Request p;
  p.id = id;
  p.start = Clock::now();
  p.span = h.tracer->Begin("client.request", p.id + 1, parent_span);
  avm::Result<engine::Query> q = [&] {
    Tracer::Scope span(*h.tracer, "engine.build", p.id + 1, p.span);
    return h.workload->Build(p.id);
  }();
  p.sample.build_ms = SecondsSince(p.start) * 1e3;
  if (!q.ok()) {
    p.build_error = q.status();
    return p;
  }
  p.query = std::make_unique<engine::Query>(std::move(q).value());
  const auto t = Clock::now();
  {
    Tracer::Scope span(*h.tracer, "engine.submit", p.id + 1, p.span);
    p.handle = s.Submit(p.query->context(), h.workload->options());
  }
  p.sample.submit_ms = SecondsSince(t) * 1e3;
  p.wait_span = h.tracer->Begin("engine.wait", p.id + 1, p.span);
  return p;
}

bool Completed(const Request& p) {
  return p.query == nullptr || p.handle.done();
}

/// Record the completion of `p`: its latency (up to now) and its report.
/// Blocks in Wait when the request has not completed yet.
void Complete(Harness& h, Request& p) {
  avm::Result<engine::ExecReport> r = p.build_error;
  if (p.query != nullptr) r = p.handle.Wait();
  p.sample.latency_ms = SecondsSince(p.start) * 1e3;
  h.tracer->End(p.wait_span);
  h.tracer->End(p.span);
  ++h.tally.attempted;
  if (!r.ok()) {
    h.tally.Fail("request " + std::to_string(p.id) + ": " +
                 r.status().ToString());
    return;
  }
  const engine::ExecReport& e = r.value();
  if (h.kernel_tier == "unknown") {
    h.kernel_tier = e.kernel_tier;
    h.jit_tier = e.jit_tier;
  }
  p.sample.report = RequestCounters(e);
  p.sample.ok = true;
}

/// Check a completed request against the oracle; returns its sample.
Sample Check(Harness& h, Request& p) {
  if (p.sample.ok) p.sample.ok = h.CheckRequest(p.id, *p.query);
  return p.sample;
}

struct LoopResult {
  std::vector<Sample> samples;
  double wall_s = 0;  ///< first issue to last completion, minus idle checks
};

/// How often the generator looks for completed requests: the resolution
/// of a recorded latency.
constexpr auto kPoll = std::chrono::microseconds(100);

/// The closed loop. One generator thread keeps `in_flight` requests
/// outstanding. It polls them, records the latency of every request it
/// finds completed, then checks those against the oracle and issues their
/// replacements, so the client holds no more results than are in flight.
/// A check that runs with nothing else in flight (one request in flight,
/// as in adhoc, whose oracle is a query of its own) is left out of wall_s.
/// `done` sees every checked sample and the timed seconds so far; once it
/// says stop, the in-flight requests drain.
LoopResult RunLoop(Harness& h, size_t in_flight,
                   const std::function<bool(const Sample&, double)>& done) {
  LoopResult out;
  std::vector<Request> pending, completed;
  const auto t0 = Clock::now();
  auto last_done = t0;
  double idle_check_s = 0;  // since the last issue
  double excluded_s = 0;
  bool stop = false;
  for (;;) {
    while (!stop && pending.size() < in_flight) {
      excluded_s += idle_check_s;
      idle_check_s = 0;
      pending.push_back(Issue(h, *h.session, h.next_request++, 0));
    }
    if (pending.empty()) break;
    for (size_t i = 0; i < pending.size();) {
      if (!Completed(pending[i])) {
        ++i;
        continue;
      }
      Complete(h, pending[i]);
      last_done = Clock::now();
      completed.push_back(std::move(pending[i]));
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (completed.empty()) {
      std::this_thread::sleep_for(kPoll);
      continue;
    }
    const auto t = Clock::now();
    for (Request& p : completed) {
      out.samples.push_back(Check(h, p));
      if (!stop && done(out.samples.back(),
                        SecondsSince(t0) - excluded_s - idle_check_s)) {
        stop = true;
      }
    }
    completed.clear();
    if (pending.empty()) idle_check_s += SecondsSince(t);
  }
  out.wall_s =
      std::chrono::duration<double>(last_done - t0).count() - excluded_s;
  return out;
}

/// Warm-up for repeated shapes: run until in_flight + 1 consecutive
/// requests compiled nothing and requested no tier upgrade, and no JIT
/// compiler process is still running (a background upgrade). Capped.
constexpr double kWarmupCapSeconds = 60;

bool WarmupDone(const Sample& s, double elapsed, size_t in_flight,
                int* quiet, bool* capped) {
  const bool q = s.ok && s.report.traces_compiled == 0 &&
                 s.report.tier_upgrades_requested == 0;
  *quiet = q ? *quiet + 1 : 0;
  if (*quiet >= static_cast<int>(in_flight) + 1 && ChildProcesses() == 0) {
    return true;
  }
  if (elapsed > kWarmupCapSeconds) {
    *capped = true;
    return true;
  }
  return false;
}

}  // namespace

Sample Harness::RunAlone(engine::Session& s, const std::string& span,
                         uint64_t id) {
  Tracer::Scope outer(*tracer, span);
  Request p = Issue(*this, s, id, outer.id());
  Complete(*this, p);
  return Check(*this, p);
}

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1;
  bool setup_only = false;  ///< set up once, print setup_s, exit
  bool corrupt = false;
  std::string trace_out;
  std::string git_sha = "unknown";
  std::string env_note;
  int list_plans = -1;   ///< print the first N request descriptions, exit
  bool digest = false;   ///< print the inputs digest, exit
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--corrupt") {
      a->corrupt = true;
      continue;
    }
    if (k == "--digest") {
      a->digest = true;
      continue;
    }
    if (k == "--setup-only") {
      a->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--scale") a->scale = std::atof(v.c_str());
    else if (k == "--trace-out") a->trace_out = v;
    else if (k == "--git-sha") a->git_sha = v;
    else if (k == "--env-note") a->env_note = v;
    else if (k == "--list-plans") a->list_plans = std::atoi(v.c_str());
    else return false;
  }
  return !a->workload.empty() && a->seconds > 0 && a->scale > 0 &&
         a->scale <= 1;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The timed interval runs for --seconds and then on, up to
/// kMaxStretch times --seconds, until it holds kMinSamples requests, so that
/// at least ten samples lie beyond latency_p90_ms.
constexpr size_t kMinSamples = 110;
constexpr double kMaxStretch = 2;

/// User and system CPU seconds of the whole process.
struct CpuTime {
  double user = 0, sys = 0;
};

CpuTime CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {s(ru.ru_utime), s(ru.ru_stime)};
}

/// What the engine did per request in the timed interval: a run whose
/// figures move while these stay put moved with the host, not the engine.
void PrintTimedCounters(const LoopResult& r) {
  double n = 0, compiled = 0, upgrades = 0, inj = 0, fb = 0, morsels = 0;
  std::vector<double> exec;
  for (const Sample& s : r.samples) {
    if (!s.ok) continue;
    const RequestCounters& e = s.report;
    ++n;
    compiled += e.traces_compiled;
    upgrades += e.tier_upgrades_requested;
    inj += e.injection_runs;
    fb += e.injection_fallbacks;
    morsels += e.morsels;
    exec.push_back(e.wall_seconds * 1e3);
  }
  n = std::max(n, 1.0);
  std::printf("timed per request: exec_ms p50 %.3f, traces_compiled %.3f, "
              "tier_upgrades %.3f, injection_runs %.2f, fallbacks %.2f, "
              "morsels %.2f\n",
              Median(exec), compiled / n, upgrades / n, inj / n, fb / n,
              morsels / n);
}

size_t Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

/// A workload's inputs, its oracle and a warmed long-lived Session.
struct Setup {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<engine::Session> session;
  double setup_s = 0;    ///< generation + start-up + warm-up
  double datagen_s = 0;  ///< generation alone
  double oracle_rss_mb = 0;  ///< peak RSS once inputs and oracle exist
  double setup_rss_mb = 0;   ///< peak RSS at the end of set-up
  bool warmup_capped = false;
};

Setup RunSetup(const Args& a, Harness& h) {
  Setup s;
  s.workload = MakeWorkload(a.workload);
  h.workload = s.workload.get();
  const auto t0 = Clock::now();
  {
    Tracer::Scope span(*h.tracer, "storage.datagen");
    s.workload->Generate(a.seed, a.scale);
  }
  s.datagen_s = SecondsSince(t0);
  // The oracle is the benchmark's, not the system's: kept out of setup_s.
  const auto t_oracle = Clock::now();
  avm::Status st = s.workload->PrepareOracle();
  if (!st.ok()) h.tally.Fail("oracle: " + st.ToString());
  const double oracle_s = SecondsSince(t_oracle);
  s.oracle_rss_mb = PeakRssMiB();
  {
    Tracer::Scope span(*h.tracer, "engine.session_start");
    engine::SessionOptions so;
    so.num_workers = Nproc();
    s.session = std::make_unique<engine::Session>(so);
  }
  h.session = s.session.get();
  if (s.workload->steady()) {
    Tracer::Scope span(*h.tracer, "setup.warmup");
    int quiet = 0;
    RunLoop(h, s.workload->in_flight(), [&](const Sample& x, double el) {
      return WarmupDone(x, el, s.workload->in_flight(), &quiet,
                        &s.warmup_capped);
    });
  }
  s.setup_s = SecondsSince(t0) - oracle_s;
  s.setup_rss_mb = PeakRssMiB();
  return s;
}

struct Latency {
  double p50 = 0, p90 = 0, qps = 0;
  size_t n = 0, beyond_p90 = 0;
};

Latency Summarize(const LoopResult& r) {
  Latency l;
  std::vector<double> lat;
  size_t ok = 0;
  for (const Sample& s : r.samples) {
    lat.push_back(s.latency_ms);
    ok += s.ok;
  }
  l.n = lat.size();
  l.p50 = Median(lat);
  l.p90 = Percentile(lat, 90);
  for (double x : lat) l.beyond_p90 += x > l.p90;
  l.qps = r.wall_s > 0 ? static_cast<double>(ok) / r.wall_s : 0;
  return l;
}

void PrintMetric(const Metric& m) {
  if (m.missing.empty()) {
    std::printf("metric %-30s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  } else {
    std::printf("metric %-30s %14s %s  (missing: %s)\n", m.name.c_str(), "-",
                m.unit.c_str(), m.missing.c_str());
  }
}

std::string ResultJson(const Harness& h, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += h.tally.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(h.tally.attempted);
  out += ", \"failed\": " + std::to_string(h.tally.failed);
  out += ", \"metrics\": {";
  char buf[96];
  for (size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}}";
}

/// Per-layer metrics read from the traced loop's ExecReports.
void ReportMetrics(const LoopResult& r, std::vector<Metric>* out,
                   LoopStats* stats) {
  std::vector<double> build, submit, exec, queue;
  double morsels = 0, spill_b = 0, spill_r = 0, inj = 0, inj_fb = 0;
  double fast = 0, fast_ms = 0, opt = 0, opt_ms = 0, reused = 0;
  double declined = 0, peak = 0;
  size_t n = 0;
  for (const Sample& s : r.samples) {
    if (!s.ok) continue;
    const RequestCounters& e = s.report;
    ++n;
    build.push_back(s.build_ms);
    submit.push_back(s.submit_ms);
    exec.push_back(e.wall_seconds * 1e3);
    queue.push_back(s.latency_ms - s.build_ms - s.submit_ms -
                    e.wall_seconds * 1e3);
    morsels += e.morsels;
    spill_b += e.bytes_spilled;
    spill_r += e.spill_runs;
    inj += e.injection_runs;
    inj_fb += e.injection_fallbacks;
    fast += e.fast_compiles;
    fast_ms += e.fast_compile_seconds * 1e3;
    opt += e.opt_compiles;
    opt_ms += e.opt_compile_seconds * 1e3;
    reused += e.traces_reused;
    declined += e.jit_declined;
    peak = std::max(peak, static_cast<double>(e.peak_tracked_bytes));
  }
  const double dn = std::max<size_t>(n, 1);
  const double compiles = fast + opt;
  stats->spill_bytes_per_request = spill_b / dn;
  stats->spill_runs_per_request = spill_r / dn;
  constexpr double kMiB = 1 << 20;
  out->push_back({"storage.spill_mb", spill_b / dn / kMiB, "MiB", ""});
  out->push_back({"storage.spill_runs", spill_r / dn, "count", ""});
  out->push_back({"engine.build_ms", Median(build), "ms", ""});
  out->push_back({"engine.submit_ms", Median(submit), "ms", ""});
  out->push_back({"engine.queue_ms", Median(queue), "ms", ""});
  out->push_back({"engine.exec_ms", Median(exec), "ms", ""});
  out->push_back({"engine.morsels", morsels / dn, "count", ""});
  out->push_back({"engine.peak_tracked_mb", peak / kMiB, "MiB", ""});
  out->push_back({"vm.injection_runs", inj / dn, "count", ""});
  out->push_back({"vm.injection_fallbacks", inj_fb / dn, "count", ""});
  out->push_back({"jit.fast_compiles", fast / dn, "count", ""});
  out->push_back({"jit.fast_compile_ms", fast_ms / dn, "ms", ""});
  out->push_back({"jit.opt_compiles", opt / dn, "count", ""});
  out->push_back({"jit.opt_compile_ms", opt_ms / dn, "ms", ""});
  Metric hit{"jit.trace_hit_frac", 0, "ratio", ""};
  if (reused + compiles > 0) {
    hit.value = reused / (reused + compiles);
  } else {
    hit.missing = "no trace was compiled or reused";
  }
  out->push_back(hit);
  Metric ipc{"jit.injections_per_compile", 0, "ratio", ""};
  if (compiles > 0) {
    ipc.value = inj / compiles;
  } else {
    ipc.missing = "nothing compiled in the traced loop (warm cache)";
  }
  out->push_back(ipc);
  out->push_back({"jit.declined_frac", declined / dn, "ratio", ""});
}

// Per-layer metrics in BENCHMARK.json order; anything a workload cannot
// measure is reported as missing with its reason.
const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"storage.datagen_s", "s"},          {"storage.scan_decode_ms", "ms"},
      {"storage.spill_mb", "MiB"},         {"storage.spill_runs", "count"},
      {"storage.spill_io_ms", "ms"},       {"dsl.typecheck_ms", "ms"},
      {"analysis.verify_ms", "ms"},        {"ir.partition_ms", "ms"},
      {"engine.build_ms", "ms"},           {"engine.submit_ms", "ms"},
      {"engine.queue_ms", "ms"},           {"engine.exec_ms", "ms"},
      {"engine.morsels", "count"},         {"engine.serial_ms", "ms"},
      {"engine.par_ms", "ms"},             {"engine.orderby_ms", "ms"},
      {"engine.peak_tracked_mb", "MiB"},   {"engine.f64_inexact", "count"},
      {"interp.run_ms", "ms"},             {"vm.run_ms", "ms"},
      {"vm.injection_runs", "count"},      {"vm.injection_fallbacks", "count"},
      {"jit.fast_compiles", "count"},      {"jit.fast_compile_ms", "ms"},
      {"jit.opt_compiles", "count"},       {"jit.opt_compile_ms", "ms"},
      {"jit.compile_ms", "ms"},            {"jit.trace_hit_frac", "ratio"},
      {"jit.injections_per_compile", "ratio"},
      {"jit.declined_frac", "ratio"},
      {"relational.q1_vectorized_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return names;
}

std::vector<Metric> Ordered(const std::vector<Metric>& got) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : got) by_name[m.name] = m;
  std::vector<Metric> out;
  for (const auto& [name, unit] : PerLayerNames()) {
    auto it = by_name.find(name);
    out.push_back(it != by_name.end()
                      ? it->second
                      : Metric{name, 0, unit, "not measured on this workload"});
  }
  return out;
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: avm_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scale f] [--setup-only] "
                 "[--corrupt] [--trace-out path] [--git-sha s] "
                 "[--env-note s] [--digest] [--list-plans n]\n");
    return 2;
  }
  if (MakeWorkload(a.workload) == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  if (a.digest || a.list_plans >= 0) {
    std::unique_ptr<Workload> w = MakeWorkload(a.workload);
    w->Generate(a.seed, a.scale);
    if (a.digest) {
      std::printf("digest %016llx\n",
                  static_cast<unsigned long long>(w->InputsDigest()));
    }
    for (int i = 0; i < a.list_plans; ++i) {
      std::printf("plan %d %s\n", i, w->Describe(i).c_str());
    }
    return 0;
  }

  Tracer tracer(false);
  Harness h;
  h.tracer = &tracer;
  h.corrupt = a.corrupt;

  // One set-up per process: compiled traces stay cached in the process,
  // so a second set-up here would not pay what a fresh one pays. run.py
  // repeats set-up in separate --setup-only processes for the median.
  tracer.set_enabled(a.trace);
  Setup setup = RunSetup(a, h);
  if (a.setup_only) {
    std::printf("{\"setup_s\": %.17g, \"correct\": %s}\n", setup.setup_s,
                h.tally.failed == 0 ? "true" : "false");
    return h.tally.failed == 0 ? 0 : 1;
  }
  Workload& w = *setup.workload;
  const size_t k = w.in_flight();

  std::vector<Metric> metrics;
  auto timed = [&](double seconds, size_t min_samples) {
    size_t n = 0;
    return RunLoop(h, k, [&](const Sample&, double el) {
      ++n;
      return el >= seconds &&
             (n >= min_samples || el >= kMaxStretch * seconds);
    });
  };

  if (!a.trace) {
    const CpuTime cpu0 = CpuSeconds();
    const LoopResult r = timed(a.seconds, kMinSamples);
    const CpuTime cpu1 = CpuSeconds();
    const double user_s = cpu1.user - cpu0.user, sys_s = cpu1.sys - cpu0.sys;
    const Latency l = Summarize(r);
    std::printf("latency_p50_ms %.4f ms (n=%zu)\n", l.p50, l.n);
    std::printf("latency_p90_ms %.4f ms (n=%zu, %zu beyond)\n", l.p90, l.n,
                l.beyond_p90);
    std::printf("timed_s %.3f, process CPU %.3f s user + %.3f s sys (%.2f "
                "cores); peak RSS %.3f MiB after inputs+oracle, %.3f MiB "
                "after set-up\n",
                r.wall_s, user_s, sys_s,
                (user_s + sys_s) / std::max(r.wall_s, 1e-9),
                setup.oracle_rss_mb, setup.setup_rss_mb);
    PrintTimedCounters(r);
    Metric p90{"latency_p90_ms", l.p90, "ms", ""};
    if (l.beyond_p90 < 10) {
      p90 = {"latency_p90_ms", 0, "ms",
             "fewer than ten samples beyond the 90th percentile"};
    }
    metrics = {{"setup_s", setup.setup_s, "s", ""},
               {"latency_p50_ms", l.p50, "ms", ""},
               p90,
               {"throughput_qps", l.qps, "1/s", ""},
               {"peak_rss_mb", PeakRssMiB(), "MiB", ""}};
  } else {
    // Untraced half, then traced half: their difference is the tracing
    // overhead. Then the per-layer probes, traced.
    tracer.set_enabled(false);
    const LoopResult plain = timed(a.seconds / 2, 0);
    tracer.set_enabled(true);
    const uint64_t inexact_before = h.tally.f64_inexact;
    const LoopResult traced = timed(a.seconds / 2, 0);
    const Latency lp = Summarize(plain), lt = Summarize(traced);
    std::printf("untraced latency_p50_ms %.4f (n=%zu), traced %.4f (n=%zu)\n",
                lp.p50, lp.n, lt.p50, lt.n);
    std::vector<Metric> got;
    got.push_back({"storage.datagen_s", setup.datagen_s, "s", ""});
    LoopStats stats;
    ReportMetrics(traced, &got, &stats);
    got.push_back({"engine.f64_inexact",
                   static_cast<double>(h.tally.f64_inexact - inexact_before),
                   "count", ""});
    got.push_back({"trace.overhead_ms", lt.p50 - lp.p50, "ms", ""});
    RunProbes(h, stats, &got);
    metrics = Ordered(got);
  }

  // Provenance, then every metric, then the self-time summary.
  char prov[2048];
  std::snprintf(
      prov, sizeof prov,
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"scale\": %g, \"nproc\": %zu, \"cpu_model\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"git_sha\": \"%s\", "
      "\"kernel_tier\": \"%s\", \"jit_tier_policy\": \"%s\", "
      "\"in_flight\": %zu, \"warmup_capped\": %s, "
      "\"env\": \"%s\"",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, a.scale, Nproc(), JsonEscape(CpuModel()).c_str(),
      JsonEscape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
      JsonEscape(a.git_sha).c_str(), h.kernel_tier.c_str(), h.jit_tier.c_str(),
      k, setup.warmup_capped ? "true" : "false",
      JsonEscape(a.env_note).c_str());
  std::printf("provenance {%s}\n", prov);
  for (const Metric& m : metrics) PrintMetric(m);
  const double attempted = std::max<uint64_t>(h.tally.attempted, 1);
  std::printf("failed_frac %.6f ratio (%llu of %llu)\n",
              h.tally.failed / attempted,
              static_cast<unsigned long long>(h.tally.failed),
              static_cast<unsigned long long>(h.tally.attempted));
  if (!h.tally.first_error.empty()) {
    std::printf("first failure: %s\n", h.tally.first_error.c_str());
  }
  if (a.trace) {
    for (const SelfTime& t : tracer.SummaryByModule()) {
      std::printf("self_ms %-12s %12.3f ms (total %.3f ms, %llu spans)\n",
                  t.name.c_str(), t.self_ms, t.total_ms,
                  static_cast<unsigned long long>(t.count));
    }
    if (!a.trace_out.empty() &&
        !tracer.WriteJson(a.trace_out, "\"provenance\": {" + std::string(prov) +
                                           "}")) {
      std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());
    }
  }
  std::fflush(stdout);
  std::printf("%s\n", ResultJson(h, metrics).c_str());
  std::fflush(stdout);
  return h.tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
