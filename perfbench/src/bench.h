// Shared declarations of the Session benchmark (see ../README.md): the
// workloads, their oracles, the closed-loop load generator's records, and
// the per-layer probes of the traced run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/query_builder.h"
#include "engine/session.h"
#include "storage/table.h"
#include "trace.h"

namespace perfbench {

/// Outcome of checking one finished request against its oracle.
struct CheckResult {
  bool ok = true;
  std::string error;         ///< first mismatch, empty when ok
  uint64_t f64_inexact = 0;  ///< f64 aggregates not bit-identical
};

/// One workload: its inputs (generated from the seed), how a request is
/// built, and the oracle every finished request is checked against.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  /// Requests the load generator keeps in flight (closed loop).
  virtual size_t in_flight() const = 0;
  /// True when requests repeat one shape, so timing starts only after a
  /// warm-up that leaves nothing to compile.
  virtual bool steady() const { return true; }
  /// Per-request options (strategy, memory budget).
  virtual avm::engine::QueryOptions options() const { return {}; }

  /// Generate every input from `seed`; `scale` (0, 1] shrinks the input
  /// sizes for the benchmark's own tests.
  virtual void Generate(uint64_t seed, double scale) = 0;
  /// Compute the oracle the checks compare against (once per set-up).
  virtual avm::Status PrepareOracle() = 0;
  /// Build request `i` through QueryBuilder (what a caller does per query).
  virtual avm::Result<avm::engine::Query> Build(uint64_t i) = 0;
  /// Check finished request `i`. `corrupt` perturbs the observed result
  /// before comparing (the benchmark's own test that checks bite).
  virtual CheckResult Check(uint64_t i, const avm::engine::Query& q,
                            bool corrupt) = 0;
  /// One line describing request `i` (the adhoc plan; the fixed query
  /// elsewhere).
  virtual std::string Describe(uint64_t i) = 0;
  /// FNV digest of the generated tables.
  virtual uint64_t InputsDigest() const = 0;

  /// The table every request scans.
  virtual const avm::Table& scanned_table() const = 0;
  /// The lineitem table when the workload has one (Q1 ladder probes).
  virtual const avm::Table* lineitem() const { return nullptr; }
  /// The join request with OrderBy dropped (join workloads only).
  virtual avm::Result<avm::engine::Query> BuildUnordered() {
    return avm::Status::NotImplemented("no ORDER BY in this workload");
  }
  /// Check of a BuildUnordered() request.
  virtual CheckResult CheckUnordered(const avm::engine::Query&) {
    return {false, "no unordered variant", 0};
  }
};

/// The workload named `name`, or null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// The ExecReport fields the benchmark reads, kept per request instead of
/// the whole report, so the client's own memory in peak_rss_mb stays small
/// however many requests a run completes.
struct RequestCounters {
  explicit RequestCounters(const avm::engine::ExecReport& e = {});

  double wall_seconds = 0;
  uint64_t morsels = 0;
  uint64_t bytes_spilled = 0;
  uint64_t spill_runs = 0;
  uint64_t peak_tracked_bytes = 0;
  uint64_t traces_compiled = 0;
  uint64_t traces_reused = 0;
  uint64_t tier_upgrades_requested = 0;
  uint64_t injection_runs = 0;
  uint64_t injection_fallbacks = 0;
  uint64_t fast_compiles = 0;
  uint64_t opt_compiles = 0;
  double fast_compile_seconds = 0;
  double opt_compile_seconds = 0;
  bool jit_declined = false;  ///< ExecReport::jit_declined non-empty
};

/// One finished request as the client saw it.
struct Sample {
  double latency_ms = 0;  ///< start of Build() to completion
  double build_ms = 0;
  double submit_ms = 0;
  bool ok = false;  ///< completed without error and matched the oracle
  RequestCounters report;
};

/// Counters the load generator and the probes accumulate.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< errored + wrong results
  uint64_t f64_inexact = 0;
  std::string first_error;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

/// Everything a run shares: the workload, its long-lived Session, the
/// tracer, the request counter (adhoc plans never repeat within a run) and
/// the tallies.
struct Harness {
  Workload* workload = nullptr;
  avm::engine::Session* session = nullptr;
  Tracer* tracer = nullptr;
  uint64_t next_request = 0;
  bool corrupt = false;  ///< corrupt the first checked result
  Tally tally;
  /// Kernel tier and JIT tier policy of the first completed request.
  std::string kernel_tier = "unknown", jit_tier = "unknown";

  /// Build, Submit and Wait request `id` alone on `s` (traced as `span`),
  /// check it, and return the sample.
  Sample RunAlone(avm::engine::Session& s, const std::string& span,
                  uint64_t id);
  /// Check one finished request, counting a mismatch as a failure.
  bool CheckRequest(uint64_t i, const avm::engine::Query& q);
};

/// Number of processes whose parent is this process (JIT compiler
/// invocations in flight).
int ChildProcesses();

/// Median of `v` (0 for empty).
double Median(std::vector<double> v);
/// Linear-interpolated percentile `p` in [0, 100] of `v`.
double Percentile(std::vector<double> v, double p);

/// A named metric value with its unit; `missing` carries the reason when
/// the metric could not be measured on this workload (the value is then 0).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string missing;
};

/// Per-request aggregates of the traced loop that the probes need.
struct LoopStats {
  double spill_bytes_per_request = 0;
  double spill_runs_per_request = 0;
};

/// Run the per-layer probes of the traced run; appends their metrics.
void RunProbes(Harness& h, const LoopStats& loop, std::vector<Metric>* out);

}  // namespace perfbench
