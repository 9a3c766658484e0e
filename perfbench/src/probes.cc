// Per-layer probes of the traced run. Each prices one module by timing
// calls into that module's public functions from here, never by reaching
// into engine internals; a layer that cannot be driven alone on a workload
// is reported as missing with the reason.
#include <chrono>
#include <set>
#include <thread>

#include "analysis/verify_program.h"
#include "bench.h"
#include "dsl/typecheck.h"
#include "interp/interpreter.h"
#include "ir/depgraph.h"
#include "jit/trace_cache.h"
#include "jit/trace_compiler.h"
#include "relational/q1.h"
#include "storage/spill_file.h"
#include "util/hash.h"
#include "vm/adaptive_vm.h"

namespace perfbench {

namespace engine = avm::engine;
using Clock = std::chrono::steady_clock;

namespace {

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr int kReps = 5;
/// Distinct adhoc plans the front-end probes (typecheck/verify/partition)
/// and the compile probe sample.
constexpr int kAdhocPlans = 8;
constexpr int kMaxCompiles = 6;

/// Lowered programs of the requests the probes price: the workload's one
/// shape (built kReps times) or kAdhocPlans distinct adhoc plans. Each
/// comes type-checked; typecheck time is recorded per program.
struct Programs {
  std::vector<avm::dsl::Program> progs;
  std::vector<double> typecheck_ms;
};

Programs LowerPrograms(Harness& h) {
  Programs out;
  Workload& w = *h.workload;
  const int n = w.steady() ? kReps : kAdhocPlans;
  const int64_t rows = static_cast<int64_t>(w.scanned_table().num_rows());
  for (int i = 0; i < n; ++i) {
    avm::Result<engine::Query> q = w.Build(h.next_request++);
    if (!q.ok()) {
      h.tally.Fail("probe build: " + q.status().ToString());
      continue;
    }
    avm::Result<avm::dsl::Program> p = q.value().MakeProgram(rows);
    if (!p.ok()) {
      h.tally.Fail("probe MakeProgram: " + p.status().ToString());
      continue;
    }
    avm::dsl::Program prog = std::move(p).value();
    const auto t = Clock::now();
    avm::Status st;
    {
      Tracer::Scope span(*h.tracer, "dsl.typecheck");
      st = avm::dsl::TypeCheck(&prog);
    }
    out.typecheck_ms.push_back(MsSince(t));
    if (!st.ok()) {
      h.tally.Fail("probe TypeCheck: " + st.ToString());
      continue;
    }
    out.progs.push_back(std::move(prog));
  }
  return out;
}

/// Bind a lowered program for a bare serial run: scanned columns as column
/// bindings, writable arrays (accumulators) as zeroed buffers. Fails when
/// the program reads arrays only the built Query holds (join tables).
avm::Status BindSerial(const avm::dsl::Program& p, const avm::Table& t,
                       avm::interp::Interpreter& in,
                       std::vector<std::vector<uint8_t>>* storage) {
  // Accumulators are indexed by group id; 64 slots cover every group count
  // the workloads use.
  constexpr uint64_t kSlots = 64;
  for (const avm::dsl::DataDecl& d : p.data) {
    avm::Result<const avm::Column*> col = t.ColumnByName(d.name);
    if (col.ok()) {
      AVM_RETURN_NOT_OK(in.BindData(
          d.name, avm::interp::DataBinding::FromColumn(col.value())));
    } else if (d.writable) {
      storage->emplace_back(kSlots * avm::TypeWidth(d.type), 0);
      AVM_RETURN_NOT_OK(in.BindData(
          d.name, avm::interp::DataBinding::Raw(
                      d.type, storage->back().data(), kSlots, true)));
    } else {
      return avm::Status::NotImplemented(
          "the program reads " + d.name +
          ", which only the built Query holds (join build side)");
    }
  }
  return avm::Status::OK();
}

void ScanDecode(Harness& h, const avm::dsl::Program& p,
                std::vector<Metric>* out) {
  const avm::Table& t = h.workload->scanned_table();
  std::vector<const avm::Column*> cols;
  for (const avm::dsl::DataDecl& d : p.data) {
    avm::Result<const avm::Column*> c = t.ColumnByName(d.name);
    if (c.ok()) cols.push_back(c.value());
  }
  std::vector<double> ms;
  std::vector<uint8_t> buf(avm::kDefaultChunkSize * 8);
  for (int r = 0; r < kReps; ++r) {
    Tracer::Scope span(*h.tracer, "storage.scan_decode");
    const auto t0 = Clock::now();
    for (const avm::Column* c : cols) {
      avm::ColumnChunkCursor cursor(c);
      for (uint64_t row = 0; row < c->num_rows();
           row += avm::kDefaultChunkSize) {
        const uint32_t len = static_cast<uint32_t>(std::min<uint64_t>(
            avm::kDefaultChunkSize, c->num_rows() - row));
        avm::Status st = cursor.ReadAt(row, len, buf.data());
        if (!st.ok()) {
          h.tally.Fail("scan decode: " + st.ToString());
          return;
        }
      }
    }
    ms.push_back(MsSince(t0));
  }
  out->push_back({"storage.scan_decode_ms", Median(ms), "ms", ""});
}

void FrontEnd(Harness& h, const Programs& ps, std::vector<Metric>* out) {
  std::vector<double> verify, partition;
  const avm::ir::PartitionConstraints constraints =
      avm::vm::VmOptions{}.constraints;
  for (const avm::dsl::Program& p : ps.progs) {
    auto t = Clock::now();
    avm::analysis::VerifyResult vr;
    {
      Tracer::Scope span(*h.tracer, "analysis.verify");
      vr = avm::analysis::VerifyProgram(p);
    }
    verify.push_back(MsSince(t));
    if (!vr.clean()) h.tally.Fail("VerifyProgram: " + vr.ToString());
    t = Clock::now();
    {
      Tracer::Scope span(*h.tracer, "ir.partition");
      avm::Result<avm::ir::DepGraph> g = avm::ir::DepGraph::Build(p);
      if (g.ok()) avm::ir::GreedyPartition(g.value(), constraints);
    }
    partition.push_back(MsSince(t));
  }
  out->push_back({"dsl.typecheck_ms", Median(ps.typecheck_ms), "ms", ""});
  out->push_back({"analysis.verify_ms", Median(verify), "ms", ""});
  out->push_back({"ir.partition_ms", Median(partition), "ms", ""});
}

/// jit::CompileTraceTiered per partitioned trace, each distinct generated
/// source once: the synchronous compile a new shape pays.
void Compile(Harness& h, const Programs& ps, std::vector<Metric>* out) {
  std::set<uint64_t> seen;
  std::vector<double> ms;
  const avm::ir::PartitionConstraints constraints =
      avm::vm::VmOptions{}.constraints;
  for (const avm::dsl::Program& p : ps.progs) {
    avm::Result<avm::ir::DepGraph> g = avm::ir::DepGraph::Build(p);
    if (!g.ok()) continue;
    for (const avm::ir::Trace& tr :
         avm::ir::GreedyPartition(g.value(), constraints)) {
      if (static_cast<int>(ms.size()) >= kMaxCompiles) break;
      avm::Result<avm::jit::GeneratedTrace> gen =
          avm::jit::GenerateTrace(p, g.value(), tr);
      if (!gen.ok() || !seen.insert(avm::HashString(gen.value().source))
                            .second) {
        continue;  // declined by codegen, or already compiled here
      }
      const auto t = Clock::now();
      avm::Result<avm::jit::TieredCompileOutcome> c = [&] {
        Tracer::Scope span(*h.tracer, "jit.compile");
        return avm::jit::CompileTraceTiered(
            p, g.value(), tr, {}, avm::jit::TierPolicy::kDefault, nullptr,
            avm::jit::TraceFingerprint(g.value(), tr));
      }();
      if (c.ok()) ms.push_back(MsSince(t));
    }
  }
  Metric m{"jit.compile_ms", Median(ms), "ms", ""};
  if (ms.empty()) m.missing = "no partitioned trace compiled";
  out->push_back(m);
}

/// interp::Interpreter::Run and vm::AdaptiveVm::Run of one program over all
/// rows, serial: the bottom of the Q1 ladder.
void InterpAndVm(Harness& h, const Programs& ps, std::vector<Metric>* out) {
  const avm::Table& t = h.workload->scanned_table();
  const avm::dsl::Program* prog = nullptr;
  std::string why = "no program lowered";
  for (const avm::dsl::Program& p : ps.progs) {
    avm::interp::Interpreter probe(&p);
    std::vector<std::vector<uint8_t>> storage;
    avm::Status st = BindSerial(p, t, probe, &storage);
    if (st.ok()) {
      prog = &p;
      break;
    }
    why = st.message();
  }
  if (prog == nullptr) {
    out->push_back({"interp.run_ms", 0, "ms", why});
    out->push_back({"vm.run_ms", 0, "ms", why});
    return;
  }
  std::vector<double> interp_ms;
  for (int r = 0; r < kReps; ++r) {
    avm::interp::Interpreter in(prog);
    std::vector<std::vector<uint8_t>> storage;
    BindSerial(*prog, t, in, &storage).Abort("bind");
    const auto t0 = Clock::now();
    avm::Status st;
    {
      Tracer::Scope span(*h.tracer, "interp.run");
      st = in.Run();
    }
    interp_ms.push_back(MsSince(t0));
    if (!st.ok()) h.tally.Fail("interp run: " + st.ToString());
  }
  out->push_back({"interp.run_ms", Median(interp_ms), "ms", ""});

  // Warm a shared TraceCache until a run compiles nothing and no tier
  // upgrade is in flight, then time.
  avm::jit::TraceCache cache;
  auto run_vm = [&](double* ms) {
    avm::vm::AdaptiveVm vm(prog, {}, &cache);
    std::vector<std::vector<uint8_t>> storage;
    BindSerial(*prog, t, vm.interpreter(), &storage).Abort("bind");
    const auto t0 = Clock::now();
    avm::Status st;
    {
      Tracer::Scope span(*h.tracer, "vm.run");
      st = vm.Run();
    }
    *ms = MsSince(t0);
    if (!st.ok()) h.tally.Fail("vm run: " + st.ToString());
    return vm.Report();
  };
  const auto warm0 = Clock::now();
  double ms = 0;
  for (;;) {
    const avm::vm::VmReport r = run_vm(&ms);
    const bool quiet =
        r.traces_compiled == 0 && r.tier_upgrades_requested == 0;
    if ((quiet && ChildProcesses() == 0) || MsSince(warm0) > 30e3) break;
    if (quiet) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::vector<double> vm_ms;
  for (int r = 0; r < kReps; ++r) {
    run_vm(&ms);
    vm_ms.push_back(ms);
  }
  out->push_back({"vm.run_ms", Median(vm_ms), "ms", ""});
}

/// The request alone on a 1-worker and on an nproc-worker Session. Steady
/// workloads warm each Session first; adhoc runs fresh plans cold, as
/// the workload does.
void SerialAndParallel(Harness& h, std::vector<Metric>* out) {
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const uint64_t first = h.next_request;
  h.next_request += 3;
  for (size_t workers : {size_t{1}, nproc}) {
    engine::SessionOptions so;
    so.num_workers = workers;
    engine::Session s(so);
    const std::string span = workers == 1 ? "engine.serial" : "engine.par";
    std::vector<double> ms;
    if (h.workload->steady()) {
      const auto warm0 = Clock::now();
      for (;;) {
        const Sample x = h.RunAlone(s, "setup.warmup", h.next_request++);
        const bool quiet = x.ok && x.report.traces_compiled == 0 &&
                           x.report.tier_upgrades_requested == 0;
        if ((quiet && ChildProcesses() == 0) || MsSince(warm0) > 30e3) break;
      }
    }
    // Adhoc runs the same three fresh plans on both Sessions.
    const int n = h.workload->steady() ? kReps : 3;
    for (int r = 0; r < n; ++r) {
      ms.push_back(h.RunAlone(s, span, first + r).latency_ms);
    }
    out->push_back({span + "_ms", Median(ms), "ms", ""});
  }
}

/// Exec time of the join request minus the same plan without OrderBy, each
/// run alone on the workload's own (now idle) Session.
void OrderBy(Harness& h, std::vector<Metric>* out) {
  if (!h.workload->BuildUnordered().ok()) {
    out->push_back({"engine.orderby_ms", 0, "ms",
                    "the workload's request has no join+ORDER BY"});
    return;
  }
  auto run_unordered = [&]() -> double {
    avm::Result<engine::Query> q = h.workload->BuildUnordered();
    ++h.tally.attempted;
    if (!q.ok()) {
      h.tally.Fail("unordered build: " + q.status().ToString());
      return 0;
    }
    avm::Result<engine::ExecReport> r = [&] {
      Tracer::Scope span(*h.tracer, "engine.unordered");
      return h.session->Run(q.value().context(), h.workload->options());
    }();
    if (!r.ok()) {
      h.tally.Fail("unordered run: " + r.status().ToString());
      return 0;
    }
    CheckResult c = h.workload->CheckUnordered(q.value());
    if (!c.ok) h.tally.Fail("unordered: " + c.error);
    return r.value().wall_seconds * 1e3;
  };
  run_unordered();  // compile its shape
  std::vector<double> diff;
  for (int r = 0; r < kReps; ++r) {
    const Sample x =
        h.RunAlone(*h.session, "engine.ordered", h.next_request++);
    diff.push_back(x.report.wall_seconds * 1e3 - run_unordered());
  }
  out->push_back({"engine.orderby_ms", Median(diff), "ms", ""});
}

/// storage::SpillFile Create/Append/Seal/validate/read-back of runs of the
/// size the traced loop reported, alone.
void SpillIo(Harness& h, const LoopStats& loop, std::vector<Metric>* out) {
  const uint64_t runs =
      static_cast<uint64_t>(loop.spill_runs_per_request + 0.5);
  if (runs == 0) {
    out->push_back(
        {"storage.spill_io_ms", 0, "ms", "no runs spilled on this workload"});
    return;
  }
  // The join request spills its three i64 output columns.
  constexpr size_t kCols = 3;
  const uint64_t rows = std::max<uint64_t>(
      1, static_cast<uint64_t>(loop.spill_bytes_per_request) /
             (runs * kCols * 8));
  std::vector<std::vector<int64_t>> data(kCols, std::vector<int64_t>(rows));
  for (size_t c = 0; c < kCols; ++c) {
    for (uint64_t r = 0; r < rows; ++r) data[c][r] = (r * 7 + c) % 1009;
  }
  std::vector<const uint8_t*> ptrs;
  for (auto& d : data) ptrs.push_back(reinterpret_cast<uint8_t*>(d.data()));
  std::vector<int64_t> back(avm::kDefaultChunkSize);
  std::vector<double> ms;
  for (int rep = 0; rep < kReps; ++rep) {
    Tracer::Scope span(*h.tracer, "storage.spill_io");
    const auto t0 = Clock::now();
    auto f = avm::storage::SpillFile::Create(
        std::vector<avm::TypeId>(kCols, avm::TypeId::kI64));
    avm::Status st = f.status();
    for (uint64_t r = 0; st.ok() && r < runs; ++r) {
      st = f.value()->AppendRun(r, rows, ptrs).status();
    }
    if (st.ok()) st = f.value()->Seal();
    if (st.ok()) st = f.value()->ValidateChecksums();
    for (uint64_t r = 0; st.ok() && r < runs; ++r) {
      for (size_t c = 0; st.ok() && c < kCols; ++c) {
        for (uint64_t b = 0; st.ok() && b < rows; b += back.size()) {
          const uint64_t len = std::min<uint64_t>(back.size(), rows - b);
          st = f.value()->ReadRunChunk(r, c, b, len, back.data());
        }
      }
    }
    if (f.ok()) f.value()->Close();
    ms.push_back(MsSince(t0));
    if (!st.ok()) {
      h.tally.Fail("spill io: " + st.ToString());
      break;
    }
  }
  out->push_back({"storage.spill_io_ms", Median(ms), "ms", ""});
}

void Q1Vectorized(Harness& h, std::vector<Metric>* out) {
  const avm::Table* li = h.workload->lineitem();
  if (li == nullptr) {
    out->push_back({"relational.q1_vectorized_ms", 0, "ms",
                    "the workload has no lineitem table"});
    return;
  }
  avm::Result<avm::relational::Q1Result> want =
      avm::relational::RunQ1Scalar(*li);
  std::vector<double> ms;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    avm::Result<avm::relational::Q1Result> got = [&] {
      Tracer::Scope span(*h.tracer, "relational.q1_vectorized");
      return avm::relational::RunQ1Vectorized(*li);
    }();
    ms.push_back(MsSince(t0));
    ++h.tally.attempted;
    if (!got.ok() || !want.ok() || !(got.value() == want.value())) {
      h.tally.Fail("RunQ1Vectorized differs from RunQ1Scalar");
    }
  }
  out->push_back({"relational.q1_vectorized_ms", Median(ms), "ms", ""});
}

}  // namespace

void RunProbes(Harness& h, const LoopStats& loop, std::vector<Metric>* out) {
  const Programs ps = LowerPrograms(h);
  if (ps.progs.empty()) {
    h.tally.Fail("no program could be lowered for the probes");
    return;
  }
  ScanDecode(h, ps.progs.front(), out);
  FrontEnd(h, ps, out);
  InterpAndVm(h, ps, out);
  Compile(h, ps, out);
  SerialAndParallel(h, out);
  OrderBy(h, out);
  SpillIo(h, loop, out);
  Q1Vectorized(h, out);
}

}  // namespace perfbench
