// The four workloads and their oracles (see ../README.md for why each
// exists and what it should move).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "relational/join.h"
#include "relational/q1.h"
#include "storage/datagen.h"
#include "util/rng.h"

namespace perfbench {

using avm::Result;
using avm::Status;
using avm::Table;
using avm::TypeId;
using avm::dsl::Cast;
using avm::dsl::ConstI;
using avm::dsl::ExprPtr;
using avm::dsl::Var;
namespace engine = avm::engine;

namespace {

/// FNV-1a over raw bytes, chainable through `h`.
uint64_t Fnv(const void* data, size_t n, uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// FNV digest of every decoded value of every column of `t`.
uint64_t TableDigest(const Table& t, uint64_t h) {
  std::vector<uint8_t> buf;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const avm::Column& col = t.column(c);
    const size_t width = avm::TypeWidth(col.type());
    buf.resize(col.num_rows() * width);
    if (col.num_rows() > 0) {
      col.Read(0, static_cast<uint32_t>(col.num_rows()), buf.data())
          .Abort("TableDigest");
    }
    h = Fnv(buf.data(), buf.size(), h);
  }
  return h;
}

/// Order-sensitive 64-bit digest of a stream of 64-bit words: four
/// multiply-rotate lanes (word i feeds lane i % 4), so checking ~15 MB of
/// result columns runs at memory speed (about 3 ms) and the oracle keeps 8
/// bytes per column instead of a copy.
class WordDigest {
 public:
  void Add(uint64_t w) {
    uint64_t& l = lane_[n_++ & 3];
    l = Step(l, w);
  }
  /// Adds every whole 8-byte word of `bytes`.
  void AddWords(const std::vector<uint8_t>& bytes) {
    const uint8_t* p = bytes.data();
    size_t words = bytes.size() / 8;
    for (; words > 0 && (n_ & 3) != 0; --words, p += 8) Add(Load(p));
    uint64_t l0 = lane_[0], l1 = lane_[1], l2 = lane_[2], l3 = lane_[3];
    for (; words >= 4; words -= 4, p += 32, n_ += 4) {
      l0 = Step(l0, Load(p));
      l1 = Step(l1, Load(p + 8));
      l2 = Step(l2, Load(p + 16));
      l3 = Step(l3, Load(p + 24));
    }
    lane_ = {l0, l1, l2, l3};
    for (; words > 0; --words, p += 8) Add(Load(p));
  }
  uint64_t Final() const {
    uint64_t h = n_;
    for (uint64_t l : lane_) h = Mix(h ^ l);
    return h;
  }

 private:
  static uint64_t Load(const uint8_t* p) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    return w;
  }
  static uint64_t Step(uint64_t l, uint64_t w) {
    const uint64_t x = (l ^ w) * 0x9e3779b97f4a7c15ull;
    return (x << 31) | (x >> 33);
  }
  static uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::array<uint64_t, 4> lane_ = {1, 2, 3, 4};
  uint64_t n_ = 0;
};

size_t InFlight(size_t wanted) {
  const size_t n = std::max(1u, std::thread::hardware_concurrency());
  return std::min(wanted, n);
}

uint64_t Scaled(uint64_t rows, double scale) {
  return std::max<uint64_t>(2048, static_cast<uint64_t>(rows * scale));
}

std::unique_ptr<Table> Lineitem(uint64_t seed, double scale) {
  avm::LineitemSpec spec;
  spec.num_rows = Scaled(600'000, scale);
  spec.seed = seed;
  return avm::MakeLineitem(spec);
}

// ---------------------------------------------------------------- q1_repeat

/// TPC-H Q1 over a ~SF 0.1 compressed lineitem, 4 requests in flight.
class Q1Repeat : public Workload {
 public:
  std::string name() const override { return "q1_repeat"; }
  size_t in_flight() const override { return InFlight(4); }

  void Generate(uint64_t seed, double scale) override {
    lineitem_ = Lineitem(seed, scale);
  }
  Status PrepareOracle() override {
    AVM_ASSIGN_OR_RETURN(oracle_, avm::relational::RunQ1Scalar(*lineitem_));
    return Status::OK();
  }
  Result<engine::Query> Build(uint64_t) override {
    return avm::relational::MakeQ1Query(*lineitem_);
  }
  CheckResult Check(uint64_t, const engine::Query& q, bool corrupt) override {
    avm::relational::Q1Result r = avm::relational::Q1ResultFromQuery(q);
    if (corrupt) r.groups[0].count += 1;
    if (r == oracle_) return {};
    return {false, "Q1 groups differ from RunQ1Scalar", 0};
  }
  std::string Describe(uint64_t) override { return "tpch_q1"; }
  uint64_t InputsDigest() const override {
    return TableDigest(*lineitem_, Fnv("", 0));
  }
  const Table& scanned_table() const override { return *lineitem_; }
  const Table* lineitem() const override { return lineitem_.get(); }

 private:
  std::unique_ptr<Table> lineitem_;
  avm::relational::Q1Result oracle_;
};

// ----------------------------------------------------- join_sort(_spill)

/// Filtered probe, many-to-many hash join against a duplicate-key build
/// side (the CSR path), three output columns ORDER BY f_key. The data is
/// the bench_spill_orderby fixture, seeded.
class JoinSort : public Workload {
 public:
  explicit JoinSort(bool spill) : spill_(spill) {}

  std::string name() const override {
    return spill_ ? "join_sort_spill" : "join_sort";
  }
  size_t in_flight() const override { return InFlight(4); }
  engine::QueryOptions options() const override {
    engine::QueryOptions o;
    // 1 MiB is far below the ~25 MB of output windows: every morsel
    // writes a sorted run to a SpillFile. Unbudgeted, the data fits.
    o.memory_budget = spill_ ? (1u << 20) : 0;
    return o;
  }

  void Generate(uint64_t seed, double scale) override {
    const uint64_t rows = Scaled(400'000, scale);
    constexpr int64_t kKeyHi = 999;
    avm::Rng rng(seed);
    key_.resize(rows);
    a_.resize(rows);
    b_.resize(rows);
    for (uint64_t i = 0; i < rows; ++i) {
      key_[i] = rng.NextInRange(-3, kKeyHi + 40);
      a_[i] = rng.NextInRange(0, 999);
      b_[i] = rng.NextInRange(0, 999);
    }
    probe_ = std::make_unique<Table>(avm::Schema({{"f_key", TypeId::kI64},
                                                  {"f_a", TypeId::kI64},
                                                  {"f_b", TypeId::kI64}}));
    Append(*probe_, {&key_, &a_, &b_});
    dkey_.clear();
    dval_.clear();
    for (int64_t k = 0; k <= kKeyHi; ++k) {
      const int64_t copies = rng.NextInRange(1, 3);
      for (int64_t c = 0; c < copies; ++c) {
        dkey_.push_back(k);
        dval_.push_back(rng.NextInRange(1, 500));
      }
    }
    dup_ = std::make_unique<Table>(
        avm::Schema({{"d_key", TypeId::kI64}, {"d_val", TypeId::kI64}}));
    Append(*dup_, {&dkey_, &dval_});
  }

  // Scalar HashJoinI64 probe in probe-row order (ties in build-row order),
  // then std::stable_sort by key: the order QueryBuilder promises. The
  // oracle keeps the row count and a digest per column; the pair list and
  // the generator's columns are freed, so the benchmark's own memory stays
  // well below the engine's in peak_rss_mb.
  Status PrepareOracle() override {
    avm::relational::HashJoinI64 ht(dkey_.size());
    for (size_t r = 0; r < dkey_.size(); ++r) {
      ht.Insert(dkey_[r], static_cast<uint32_t>(r));
    }
    std::vector<std::array<int64_t, 3>> pairs;  // f_key, f_b, d_val
    // Two passes, counting first, so the pair list is allocated once.
    for (bool fill : {false, true}) {
      size_t count = 0;
      ProbeOracle(ht, [&](size_t probe_row, uint32_t build_row) {
        if (fill) {
          pairs.push_back(
              {key_[probe_row], b_[probe_row], dval_[build_row]});
        }
        ++count;
      });
      if (!fill) pairs.reserve(count);
    }
    unsorted_ = Digests(pairs);
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const auto& x, const auto& y) { return x[0] < y[0]; });
    sorted_ = Digests(pairs);
    for (auto* v : {&key_, &a_, &b_, &dkey_, &dval_}) {
      std::vector<int64_t>().swap(*v);
    }
    return Status::OK();
  }

  Result<engine::Query> Build(uint64_t) override { return BuildQuery(true); }
  Result<engine::Query> BuildUnordered() override { return BuildQuery(false); }

  CheckResult Check(uint64_t, const engine::Query& q, bool corrupt) override {
    return Compare(q, sorted_, corrupt);
  }
  CheckResult CheckUnordered(const engine::Query& q) override {
    return Compare(q, unsorted_, false);
  }

  std::string Describe(uint64_t) override {
    return "filter f_a<800, join d_key (1-3 rows/key), order by f_key";
  }
  uint64_t InputsDigest() const override {
    return TableDigest(*dup_, TableDigest(*probe_, Fnv("", 0)));
  }
  const Table& scanned_table() const override { return *probe_; }

 private:
  static void Append(Table& t, std::vector<const std::vector<int64_t>*> cols) {
    for (size_t c = 0; c < cols.size(); ++c) {
      t.column(c)
          .AppendValues(cols[c]->data(),
                        static_cast<uint32_t>(cols[c]->size()))
          .Abort("append");
    }
  }

  Result<engine::Query> BuildQuery(bool order_by) {
    engine::QueryBuilder qb(*probe_);
    qb.Filter(Var("f_a") < ConstI(800))
        .Join(*dup_, "f_key", "d_key", {"d_val"})
        .Output("f_key")
        .Output("f_b")
        .Output("d_val");
    if (order_by) qb.OrderBy("f_key");
    return qb.Build();
  }

  /// Calls emit(probe row, build row) for every joined pair, in probe-row
  /// order with ties in build-row order.
  template <typename Emit>
  void ProbeOracle(const avm::relational::HashJoinI64& ht, Emit emit) const {
    constexpr uint32_t kChunk = 1024;
    std::vector<avm::sel_t> sel(kChunk), pos(kChunk * 3);
    std::vector<uint32_t> rows(kChunk * 3);
    for (size_t base = 0; base < key_.size(); base += kChunk) {
      const uint32_t n =
          static_cast<uint32_t>(std::min<size_t>(kChunk, key_.size() - base));
      uint32_t m = 0;
      for (uint32_t i = 0; i < n; ++i) {
        if (a_[base + i] < 800) sel[m++] = i;
      }
      const uint32_t np = ht.Probe(key_.data() + base, sel.data(), m,
                                   pos.data(), rows.data());
      for (uint32_t p = 0; p < np; ++p) emit(base + pos[p], rows[p]);
    }
  }

  /// Row count and one digest per result column (f_key, f_b, d_val).
  struct Expected {
    uint64_t rows = 0;
    std::array<uint64_t, 3> digest{};
  };

  static Expected Digests(const std::vector<std::array<int64_t, 3>>& pairs) {
    Expected out;
    out.rows = pairs.size();
    for (size_t c = 0; c < 3; ++c) {
      WordDigest d;
      for (const auto& p : pairs) d.Add(static_cast<uint64_t>(p[c]));
      out.digest[c] = d.Final();
    }
    return out;
  }

  // Compares the row count and each result column's bytes by digest.
  static CheckResult Compare(const engine::Query& q, const Expected& want,
                             bool corrupt) {
    if (q.num_result_rows() != want.rows) {
      return {false,
              "join rows " + std::to_string(q.num_result_rows()) +
                  " != oracle " + std::to_string(want.rows),
              0};
    }
    static const char* kCols[3] = {"f_key", "f_b", "d_val"};
    for (size_t c = 0; c < 3; ++c) {
      const std::vector<uint8_t>* got = &q.result_column(kCols[c]).data;
      std::vector<uint8_t> corrupted;
      if (corrupt && c == 2 && !got->empty()) {
        corrupted = *got;
        corrupted[0] ^= 1;
        got = &corrupted;
      }
      if (got->size() != want.rows * 8) {
        return {false, std::string("join column ") + kCols[c] +
                           " has the wrong width", 0};
      }
      WordDigest d;
      d.AddWords(*got);
      if (d.Final() != want.digest[c]) {
        return {false,
                std::string("join column ") + kCols[c] +
                    " differs from the oracle",
                0};
      }
    }
    return {};
  }

  bool spill_;
  std::vector<int64_t> key_, a_, b_, dkey_, dval_;
  std::unique_ptr<Table> probe_, dup_;
  Expected unsorted_, sorted_;
};

// -------------------------------------------------------------------- adhoc

/// One never-repeated QueryBuilder plan over lineitem.
struct Plan {
  struct Filter {
    std::string col;
    int op = 0;  // <, <=, >, >=
    int64_t c = 0;
  };
  struct Proj {
    std::string name, a, b;
    int form = 0;  // a*(100-l_discount), a+b, a*k, a-k
    int64_t k = 0;
  };
  enum AggKind { kSum = 0, kCount, kSumF64, kAvgF64 };
  struct Agg {
    std::string name, arg;
    AggKind kind = kSum;
  };
  std::vector<Filter> filters;
  std::vector<Proj> projs;
  int group = 0;  // 0 none, 1 flag*2+status (8), 2 flag (3), 3 status (2)
  std::vector<Agg> aggs;
  int order = -1;  // -1 none, 0 "group", k>0 aggs[k-1]
  bool desc = false;
  std::string text;
};

const char* kOps[4] = {"<", "<=", ">", ">="};

struct ColDomain {
  const char* name;
  int64_t lo, hi;
};
// Filterable columns with their generated domains (storage/datagen.h).
constexpr ColDomain kFilterCols[] = {{"l_quantity", 1, 50},
                                     {"l_discount", 0, 10},
                                     {"l_tax", 0, 8},
                                     {"l_shipdate", 8036, 10561},
                                     {"l_extendedprice", 90000, 10500000}};
// Numeric columns projections and aggregates read.
const char* kNumCols[] = {"l_quantity", "l_extendedprice", "l_discount",
                          "l_tax"};

class PlanGenerator {
 public:
  explicit PlanGenerator(uint64_t seed) : rng_(seed ^ 0x5eed0ad4c0ffeeull) {}

  /// Plan `i` of the sequence; call with i = 0, 1, 2, ...
  Plan Next(uint64_t i) {
    for (;;) {
      Plan p = Draw(i);
      if (seen_.insert(p.text).second) return p;
    }
  }

 private:
  int64_t Pick(int64_t lo, int64_t hi) { return rng_.NextInRange(lo, hi); }

  // The plan's structure (whether it groups, projection and aggregate
  // counts) cycles through all 18 combinations with the plan index, every
  // 6 consecutive plans covering each grouping x projection pair, so runs
  // of any seed see the same mix of shapes. The seed picks the filter
  // count, columns, constants, aggregate kinds, group keys and ordering.
  Plan Draw(uint64_t i) {
    Plan p;
    const int nf = static_cast<int>(Pick(1, 2));
    for (int i = 0; i < nf; ++i) {
      const ColDomain& d = kFilterCols[Pick(0, 4)];
      const int64_t span = d.hi - d.lo;
      // Constants in the middle 80% of the domain keep results non-empty.
      p.filters.push_back({d.name, static_cast<int>(Pick(0, 3)),
                           Pick(d.lo + span / 10, d.hi - span / 10)});
    }
    std::vector<std::string> values(std::begin(kNumCols), std::end(kNumCols));
    const int np = static_cast<int>(i % 3);
    for (int i = 0; i < np; ++i) {
      Plan::Proj pr;
      pr.name = "p" + std::to_string(i);
      pr.form = static_cast<int>(Pick(0, 3));
      pr.a = kNumCols[Pick(0, 3)];
      pr.b = kNumCols[Pick(0, 3)];
      pr.k = Pick(2, 9);
      p.projs.push_back(pr);
      values.push_back(pr.name);
    }
    p.group = i % 2 == 1 ? static_cast<int>(Pick(1, 3)) : 0;
    const int na = 1 + static_cast<int>((i / 6) % 3);
    for (int i = 0; i < na; ++i) {
      Plan::Agg a;
      a.name = "a" + std::to_string(i);
      a.kind = static_cast<Plan::AggKind>(Pick(0, 3));
      if (a.kind != Plan::kCount) {
        a.arg = values[Pick(0, static_cast<int64_t>(values.size()) - 1)];
      }
      p.aggs.push_back(a);
    }
    if (p.group != 0 && rng_.NextBool(0.4)) {
      // Order by the group or an integer aggregate: ordering by an f64
      // aggregate is documented as merge-order sensitive for near-ties.
      std::vector<int> keys = {0};
      for (size_t i = 0; i < p.aggs.size(); ++i) {
        if (p.aggs[i].kind == Plan::kSum || p.aggs[i].kind == Plan::kCount) {
          keys.push_back(static_cast<int>(i) + 1);
        }
      }
      p.order = keys[Pick(0, static_cast<int64_t>(keys.size()) - 1)];
      p.desc = rng_.NextBool(0.5);
    }
    p.text = Text(p);
    return p;
  }

  static std::string Text(const Plan& p) {
    static const char* kForms[4] = {"%s*(100-l_discount)", "%s+%s", "%s*%lld",
                                    "%s-%lld"};
    static const char* kAggs[4] = {"sum", "count", "sumf", "avgf"};
    std::string t = "filter[";
    char buf[160];
    for (const auto& f : p.filters) {
      std::snprintf(buf, sizeof buf, "%s%s%lld ", f.col.c_str(), kOps[f.op],
                    static_cast<long long>(f.c));
      t += buf;
    }
    t += "] project[";
    for (const auto& pr : p.projs) {
      if (pr.form == 1) {
        std::snprintf(buf, sizeof buf, kForms[1], pr.a.c_str(), pr.b.c_str());
      } else {
        std::snprintf(buf, sizeof buf, kForms[pr.form], pr.a.c_str(),
                      static_cast<long long>(pr.k));
      }
      t += pr.name + "=" + buf + " ";
    }
    t += "] group=" + std::to_string(p.group) + " aggs[";
    for (const auto& a : p.aggs) {
      t += a.name + "=" + kAggs[a.kind] + "(" + a.arg + ") ";
    }
    t += "]";
    if (p.order >= 0) {
      t += std::string(" order=") +
           (p.order == 0 ? "group" : p.aggs[p.order - 1].name) +
           (p.desc ? " desc" : " asc");
    }
    return t;
  }

  avm::Rng rng_;
  std::unordered_set<std::string> seen_;
};

Result<engine::Query> BuildPlan(const Table& lineitem, const Plan& p) {
  engine::QueryBuilder qb(lineitem);
  for (const auto& f : p.filters) {
    ExprPtr v = Var(f.col), c = ConstI(f.c);
    switch (f.op) {
      case 0: qb.Filter(v < c); break;
      case 1: qb.Filter(v <= c); break;
      case 2: qb.Filter(v > c); break;
      default: qb.Filter(v >= c); break;
    }
  }
  for (const auto& pr : p.projs) {
    ExprPtr a = Var(pr.a);
    switch (pr.form) {
      case 0: qb.Project(pr.name, a * (ConstI(100) - Var("l_discount"))); break;
      case 1: qb.Project(pr.name, a + Var(pr.b)); break;
      case 2: qb.Project(pr.name, a * ConstI(pr.k)); break;
      default: qb.Project(pr.name, a - ConstI(pr.k)); break;
    }
  }
  ExprPtr flag = Cast(TypeId::kI64, Var("l_returnflag"));
  ExprPtr status = Cast(TypeId::kI64, Var("l_linestatus"));
  switch (p.group) {
    case 1: qb.Aggregate(flag * ConstI(2) + status, 8); break;
    case 2: qb.Aggregate(flag, 3); break;
    case 3: qb.Aggregate(status, 2); break;
    default: break;
  }
  for (const auto& a : p.aggs) {
    switch (a.kind) {
      case Plan::kSum: qb.Sum(a.name, Var(a.arg)); break;
      case Plan::kCount: qb.Count(a.name); break;
      case Plan::kSumF64: qb.SumF64(a.name, Var(a.arg)); break;
      case Plan::kAvgF64: qb.AvgF64(a.name, Var(a.arg)); break;
    }
  }
  if (p.order >= 0) {
    qb.OrderBy(p.order == 0 ? "group" : p.aggs[p.order - 1].name,
               p.desc ? engine::SortDir::kDescending
                      : engine::SortDir::kAscending);
  }
  return qb.Build();
}

// The differential harness's tolerance for f64 values.
bool Near(double got, double want) {
  return std::abs(got - want) <= std::abs(want) * 1e-9 + 1e-9;
}

bool BitEqual(double x, double y) { return std::memcmp(&x, &y, 8) == 0; }

/// One analyst issuing never-repeated plans, one request in flight.
class Adhoc : public Workload {
 public:
  std::string name() const override { return "adhoc"; }
  size_t in_flight() const override { return 1; }
  bool steady() const override { return false; }

  void Generate(uint64_t seed, double scale) override {
    lineitem_ = Lineitem(seed, scale);
    gen_ = std::make_unique<PlanGenerator>(seed);
    plans_.clear();
  }

  // The oracle is the same plan under kInterpret on a separate 1-worker
  // Session, run per request outside the timed interval.
  Status PrepareOracle() override {
    engine::SessionOptions so;
    so.num_workers = 1;
    so.defaults.strategy = engine::ExecutionStrategy::kInterpret;
    oracle_ = std::make_unique<engine::Session>(so);
    return Status::OK();
  }

  Result<engine::Query> Build(uint64_t i) override {
    return BuildPlan(*lineitem_, PlanAt(i));
  }

  CheckResult Check(uint64_t i, const engine::Query& q,
                    bool corrupt) override {
    const Plan& p = PlanAt(i);
    Result<engine::Query> ref = BuildPlan(*lineitem_, p);
    if (!ref.ok()) return {false, ref.status().ToString(), 0};
    Result<engine::ExecReport> rr = oracle_->Run(ref.value().context());
    if (!rr.ok()) return {false, "oracle: " + rr.status().ToString(), 0};
    const engine::Query& want = ref.value();
    CheckResult out;
    auto fail = [&](const std::string& what) {
      if (!out.ok) return;
      out.ok = false;
      out.error = "plan " + std::to_string(i) + ": " + what;
    };
    for (const auto& a : p.aggs) {
      if (a.kind == Plan::kSumF64 || a.kind == Plan::kAvgF64) {
        std::vector<double> got = q.aggregate_f64(a.name);
        const std::vector<double>& exp = want.aggregate_f64(a.name);
        if (corrupt && !got.empty()) got[0] = got[0] * 2 + 1;
        if (got.size() != exp.size()) {
          fail(a.name + " group count differs");
          continue;
        }
        for (size_t g = 0; g < got.size(); ++g) {
          if (!BitEqual(got[g], exp[g])) ++out.f64_inexact;
          if (!Near(got[g], exp[g])) {
            char buf[96];
            std::snprintf(buf, sizeof buf, " group %zu: %.17g, oracle %.17g",
                          g, got[g], exp[g]);
            fail(a.name + buf);
          }
        }
      } else {
        std::vector<int64_t> got = q.aggregate(a.name);
        if (corrupt && !got.empty()) got[0] += 1;
        if (got != want.aggregate(a.name)) fail(a.name + " differs");
      }
    }
    if (q.num_result_rows() != want.num_result_rows()) {
      fail("ordered row count differs");
    } else {
      const auto& gc = q.result_columns();
      const auto& wc = want.result_columns();
      for (size_t c = 0; c < gc.size() && c < wc.size(); ++c) {
        if (gc[c].type == TypeId::kF64) {
          for (uint64_t r = 0; r < q.num_result_rows(); ++r) {
            if (!Near(gc[c].As<double>()[r], wc[c].As<double>()[r])) {
              fail("ordered column " + gc[c].name + " differs");
            }
          }
        } else if (gc[c].data != wc[c].data) {
          fail("ordered column " + gc[c].name + " differs");
        }
      }
    }
    return out;
  }

  std::string Describe(uint64_t i) override { return PlanAt(i).text; }
  uint64_t InputsDigest() const override {
    return TableDigest(*lineitem_, Fnv("", 0));
  }
  const Table& scanned_table() const override { return *lineitem_; }
  const Table* lineitem() const override { return lineitem_.get(); }

 private:
  const Plan& PlanAt(uint64_t i) {
    while (plans_.size() <= i) plans_.push_back(gen_->Next(plans_.size()));
    return plans_[i];
  }

  std::unique_ptr<Table> lineitem_;
  std::unique_ptr<PlanGenerator> gen_;
  std::vector<Plan> plans_;
  std::unique_ptr<engine::Session> oracle_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "q1_repeat") return std::make_unique<Q1Repeat>();
  if (name == "join_sort") return std::make_unique<JoinSort>(false);
  if (name == "join_sort_spill") return std::make_unique<JoinSort>(true);
  if (name == "adhoc") return std::make_unique<Adhoc>();
  return nullptr;
}

}  // namespace perfbench
