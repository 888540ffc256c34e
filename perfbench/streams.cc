#include "streams.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "bench_util.h"
#include "loadgen_traffic.h"
#include "net/json.h"
#include "relational/relation.h"
#include "relational/universe.h"
#include "shard/sharded_service.h"
#include "view/translator.h"

namespace relview {
namespace perfbench {
namespace {

// Run lengths: at --seconds=20 every workload commits at least 100
// batches (so its p90 has 10 samples beyond it), and on a 4-core x86
// host the write phase of ingest_64k takes about 20 s, the others less.
const WorkloadSpec kWorkloads[] = {
    {"ingest_64k", Kind::kIngest, 1, 65536, 4096, 4, 0, 8, 5.5, 11, true, 24},
    {"mixed_4k", Kind::kMixed, 4, 4096, 256, 3, 1, 8, 120, 0, false, 240},
    {"probe_8k", Kind::kProbe, 1, 8192, 64, 4, 0, 8, 17.6, 11, true, 40},
};

std::string Row(uint64_t a, uint64_t b) {
  return std::to_string(a) + "," + std::to_string(b);
}

/// Emp/Dept/Mgr outcome model: the view as emp -> dept plus per-dept
/// head counts, with the Theorem 3/8/9 verdicts spelled out for this
/// schema (Sigma = {Emp -> Dept, Dept -> Mgr}, Y = Dept Mgr constant):
///   insert (e,d): identity when present; rejected when e sits in another
///                 department (Emp -> Dept) or d has no employee (Y would
///                 need a new row); else applied.
///   delete (e,d): identity when absent; rejected when d would lose its
///                 last employee; else applied.
///   replace (e,d) -> (e,d'): rejected unless (e,d) is present, d keeps an
///                 employee and d' has one.
/// A batch applies all-or-nothing. SelfTest holds this model against the
/// scratch-check oracle.
class EdmModel {
 public:
  EdmModel(uint32_t emps, uint32_t depts) {
    for (uint32_t e = 1; e <= emps; ++e) Put(e, net::DeptOfEmp(e, depts));
  }

  /// Applies `batch` atomically; returns the failing position or -1.
  int Apply(const std::vector<ViewUpdate>& batch) {
    undo_.clear();
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!ApplyOne(batch[i])) {
        for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
          if (it->second == 0) {
            Erase(it->first);
          } else {
            if (dept_of_.count(it->first)) Erase(it->first);
            Put(it->first, it->second);
          }
        }
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  uint64_t size() const { return dept_of_.size(); }

  std::vector<std::string> Rows() const {
    std::vector<std::string> out;
    out.reserve(dept_of_.size());
    for (const auto& [e, d] : dept_of_) out.push_back(Row(e, d));
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  bool ApplyOne(const ViewUpdate& u) {
    const uint32_t e = u.t1[0].index();
    const uint32_t d = u.t1[1].index();
    const auto it = dept_of_.find(e);
    const bool present = it != dept_of_.end() && it->second == d;
    switch (u.kind) {
      case UpdateKind::kInsert:
        if (present) return true;
        if (it != dept_of_.end() || Members(d) == 0) return false;
        Log(e, 0);
        Put(e, d);
        return true;
      case UpdateKind::kDelete:
        if (!present) return true;
        if (Members(d) < 2) return false;
        Log(e, d);
        Erase(e);
        return true;
      case UpdateKind::kReplace: {
        const uint32_t d2 = u.t2[1].index();
        if (!present || Members(d) < 2 || Members(d2) == 0) return false;
        Log(e, d);
        Erase(e);
        Put(e, d2);
        return true;
      }
      default:
        return false;
    }
  }

  int Members(uint32_t d) const {
    const auto it = members_.find(d);
    return it == members_.end() ? 0 : it->second;
  }
  void Put(uint32_t e, uint32_t d) {
    dept_of_[e] = d;
    ++members_[d];
  }
  void Erase(uint32_t e) {
    const auto it = dept_of_.find(e);
    --members_[it->second];
    dept_of_.erase(it);
  }
  /// Remembers e's prior department (0 = absent) for rollback.
  void Log(uint32_t e, uint32_t prior) { undo_.emplace_back(e, prior); }

  std::unordered_map<uint32_t, uint32_t> dept_of_;
  std::unordered_map<uint32_t, int> members_;
  std::vector<std::pair<uint32_t, uint32_t>> undo_;
};

bench::TrafficOptions TrafficFor(const WorkloadSpec& spec, uint64_t seed) {
  bench::TrafficOptions t;
  t.tenants = spec.tenants;
  t.emps = spec.rows;
  t.depts = spec.groups;
  t.batch_size = spec.batch_size;
  t.seed = seed;
  t.zipf_theta = 0.99;
  t.shard_local_inserts = spec.kind != Kind::kMixed;
  return t;
}

/// Puts one untranslatable update in front of a fresh-insert batch body:
/// on Emp/Dept/Mgr employee 1 claimed by the wrong department
/// (Emp -> Dept), on the probe schema a row of a B-group that does not
/// exist (the complement would have to grow).
std::string PoisonFirst(const WorkloadSpec& spec, const std::string& body,
                        uint32_t fresh) {
  const std::string row =
      spec.kind == Kind::kProbe
          ? Row(fresh, net::kDeptBase + spec.groups)
          : Row(1, net::kDeptBase + (1 + 1) % spec.groups);
  const std::string head = "\"updates\":[";
  const size_t at = body.find(head) + head.size();
  return body.substr(0, at) + "{\"op\":\"insert\",\"row\":[" + row + "]}," +
         body.substr(at);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Result<std::vector<ViewUpdate>> DecodeBatch(const std::string& body) {
  RELVIEW_ASSIGN_OR_RETURN(net::JsonValue doc, net::ParseJson(body));
  const net::JsonValue* arr = doc.Get("updates");
  if (arr == nullptr || !arr->is_array()) {
    return Status::InvalidArgument("batch body without updates");
  }
  auto tuple = [](const net::JsonValue* row) -> Result<Tuple> {
    if (row == nullptr || !row->is_array() || row->array().size() != 2) {
      return Status::InvalidArgument("batch row is not a pair");
    }
    std::vector<Value> values;
    for (const net::JsonValue& v : row->array()) {
      if (!v.is_int()) return Status::InvalidArgument("non-integer cell");
      values.push_back(Value::Const(static_cast<uint32_t>(v.int_value())));
    }
    return Tuple(std::move(values));
  };
  std::vector<ViewUpdate> out;
  for (const net::JsonValue& u : arr->array()) {
    const net::JsonValue* op = u.Get("op");
    if (op == nullptr || !op->is_string()) {
      return Status::InvalidArgument("update without op");
    }
    if (op->string_value() == "replace") {
      RELVIEW_ASSIGN_OR_RETURN(Tuple from, tuple(u.Get("from")));
      RELVIEW_ASSIGN_OR_RETURN(Tuple to, tuple(u.Get("to")));
      out.push_back(ViewUpdate::Replace(std::move(from), std::move(to)));
    } else {
      RELVIEW_ASSIGN_OR_RETURN(Tuple t, tuple(u.Get("row")));
      out.push_back(op->string_value() == "delete"
                        ? ViewUpdate::Delete(std::move(t))
                        : ViewUpdate::Insert(std::move(t)));
    }
  }
  return out;
}

Result<Stream> MakeStream(const WorkloadSpec& spec, uint64_t seed,
                          int batches) {
  Stream s;
  bench::TrafficGen gen(TrafficFor(spec, seed));
  if (spec.kind == Kind::kMixed) {
    std::vector<EdmModel> models;
    for (int t = 0; t < spec.tenants; ++t) models.emplace_back(spec.rows, spec.groups);
    for (int i = 0; i < batches; ++i) {
      bench::GeneratedBatch b = gen.Next();
      Request r;
      r.tenant = std::stoi(b.tenant.substr(1));
      r.lane = r.tenant;
      r.updates = b.updates;
      RELVIEW_ASSIGN_OR_RETURN(std::vector<ViewUpdate> decoded,
                               DecodeBatch(b.body));
      const int failed = models[static_cast<size_t>(r.tenant)].Apply(decoded);
      r.expect_status = failed < 0 ? 200 : 409;
      r.expect_failed_index = failed;
      r.body = std::move(b.body);
      s.writes.push_back(std::move(r));
    }
    for (const EdmModel& m : models) {
      s.final_view_rows.push_back(m.size());
      s.final_view.push_back(m.Rows());
    }
    return s;
  }
  // The shard-local insert stream draws nothing from the seed, so the
  // seed picks where in the (department-rotating) stream the run starts.
  for (uint64_t skip = seed % spec.groups; skip > 0; --skip) gen.Next();
  int inserted = 0;
  int undeleted = -1;  // probe_8k: the insert awaiting its delete
  for (int i = 0; i < batches; ++i) {
    Request r;
    r.lane = i;
    if (spec.reject_every > 0 && i % spec.reject_every == spec.reject_every - 1) {
      bench::GeneratedBatch b = gen.Next();
      r.body = PoisonFirst(spec, b.body, 0x00F00000u + static_cast<uint32_t>(i));
      r.updates = b.updates + 1;
      r.expect_status = 409;
      r.expect_failed_index = 0;
    } else if (undeleted >= 0) {
      // Delete exactly the rows the lane's insert batch added.
      r = s.writes[static_cast<size_t>(undeleted)];
      const std::string ins = "\"op\":\"insert\"";
      for (size_t p = r.body.find(ins); p != std::string::npos;
           p = r.body.find(ins, p)) {
        r.body.replace(p, ins.size(), "\"op\":\"delete\"");
      }
      inserted -= r.updates;
      undeleted = -1;
    } else {
      bench::GeneratedBatch b = gen.Next();
      r.updates = b.updates;
      r.body = std::move(b.body);
      inserted += r.updates;
    }
    s.writes.push_back(std::move(r));
    if (spec.kind == Kind::kProbe && s.writes.back().expect_status == 200 &&
        s.writes.back().body.find("\"delete\"") == std::string::npos) {
      undeleted = static_cast<int>(s.writes.size() - 1);
    }
  }
  s.final_view_rows.push_back(spec.rows + static_cast<uint64_t>(inserted));
  return s;
}

TenantSchema MakeTenantSchema(const WorkloadSpec& spec) {
  TenantSchema s;
  if (spec.kind == Kind::kProbe) {
    // bench_util.h's probe-heavy schema (U = ABC, X = AB, Y = BC,
    // Sigma = {B -> C, C -> B}), its rows relabelled into net/workload.h's
    // id layout: A = e, B = kDeptBase + e % groups, C = kMgrBase + same.
    // TrafficGen's shard-local inserts then address existing B-groups.
    bench::ProbeHeavyWorkload w = bench::MakeProbeHeavyWorkload(
        static_cast<int>(spec.groups), static_cast<int>(spec.groups));
    s.universe = w.universe;
    s.sigma.fds = w.fds;
    s.x = w.x;
    s.y = w.y;
  } else {
    s.universe = Universe::Parse("Emp Dept Mgr").value();
    s.sigma.fds = FDSet::Parse(s.universe, "Emp -> Dept; Dept -> Mgr").value();
    s.x = s.universe.SetOf("Emp Dept");
    s.y = s.universe.SetOf("Dept Mgr");
  }
  s.seed = Relation(s.universe.All());
  for (uint32_t e = 1; e <= spec.rows; ++e) {
    const uint32_t dept = net::DeptOfEmp(e, spec.groups);
    s.seed.AddRow(Tuple({Value::Const(e), Value::Const(dept),
                         Value::Const(net::MgrOfDept(dept))}));
  }
  return s;
}

Result<net::TenantSet> MakeWorkloadTenants(const WorkloadSpec& spec,
                                           const std::string& store_root) {
  if (spec.kind != Kind::kProbe) {
    net::TenantSpec t;
    t.tenants = spec.tenants;
    t.emps = spec.rows;
    t.depts = spec.groups;
    t.store_root = store_root;
    return net::MakeTenants(t);
  }
  TenantSchema schema = MakeTenantSchema(spec);
  ShardedServiceOptions options;
  if (!store_root.empty()) options.store_root = store_root + "/t0";
  RELVIEW_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedService> svc,
      ShardedService::Create(schema.universe, schema.sigma, schema.x,
                             schema.y, schema.seed, std::move(options)));
  net::TenantSet out;
  out.names.push_back("t0");
  out.services.push_back(std::move(svc));
  return out;
}

Result<std::vector<std::string>> SnapshotRows(const std::string& body) {
  RELVIEW_ASSIGN_OR_RETURN(net::JsonValue doc, net::ParseJson(body));
  const net::JsonValue* rows = doc.Get("rows");
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument("snapshot without rows");
  }
  std::vector<std::string> out;
  out.reserve(rows->array().size());
  for (const net::JsonValue& r : rows->array()) {
    if (!r.is_array() || r.array().size() != 2 || !r.array()[0].is_int() ||
        !r.array()[1].is_int()) {
      return Status::InvalidArgument("snapshot row is not an integer pair");
    }
    out.push_back(Row(static_cast<uint64_t>(r.array()[0].int_value()),
                      static_cast<uint64_t>(r.array()[1].int_value())));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> RelationRows(const Relation& rel) {
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(rel.size()));
  for (const Tuple& t : rel.rows()) {
    out.push_back(Row(t[0].index(), t[1].index()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// Replays `stream` through a scratch-check (incremental = false)
/// translator per tenant with the service's batch semantics and compares
/// every outcome with the stream's expectation.
Status CheckAgainstOracle(const WorkloadSpec& spec, const Stream& stream) {
  TenantSchema schema = MakeTenantSchema(spec);
  TranslatorOptions scratch;
  scratch.incremental = false;
  std::vector<ViewTranslator> oracles;
  for (int t = 0; t < spec.tenants; ++t) {
    RELVIEW_ASSIGN_OR_RETURN(
        ViewTranslator vt,
        ViewTranslator::Create(schema.universe, schema.sigma, schema.x,
                               schema.y, scratch));
    RELVIEW_RETURN_IF_ERROR(vt.Bind(schema.seed));
    oracles.push_back(std::move(vt));
  }
  auto replay = [&](const Request& r, bool* ok) -> Status {
    ViewTranslator& vt = oracles[static_cast<size_t>(r.tenant)];
    RELVIEW_ASSIGN_OR_RETURN(std::vector<ViewUpdate> batch,
                             DecodeBatch(r.body));
    const Relation saved = vt.database();
    int failed = -1;
    for (size_t i = 0; i < batch.size() && failed < 0; ++i) {
      const ViewUpdate& u = batch[i];
      const Status st = u.kind == UpdateKind::kInsert   ? vt.Insert(u.t1)
                        : u.kind == UpdateKind::kDelete ? vt.Delete(u.t1)
                                                        : vt.Replace(u.t1, u.t2);
      if (!st.ok()) failed = static_cast<int>(i);
    }
    if (failed >= 0) vt.InstallDatabase(saved);
    *ok = (failed < 0 ? 200 : 409) == r.expect_status &&
          (r.expect_failed_index < 0 || failed == r.expect_failed_index);
    return Status::OK();
  };
  for (size_t i = 0; i < stream.writes.size(); ++i) {
    bool ok = false;
    RELVIEW_RETURN_IF_ERROR(replay(stream.writes[i], &ok));
    if (!ok) {
      return Status::Internal(spec.name + ": write " + std::to_string(i) +
                              " disagrees with the scratch oracle");
    }
  }
  for (int t = 0; t < spec.tenants; ++t) {
    RELVIEW_ASSIGN_OR_RETURN(Relation view,
                             oracles[static_cast<size_t>(t)].ViewInstance());
    if (static_cast<uint64_t>(view.size()) !=
            stream.final_view_rows[static_cast<size_t>(t)] ||
        (!stream.final_view.empty() &&
         RelationRows(view) != stream.final_view[static_cast<size_t>(t)])) {
      return Status::Internal(spec.name + ": final view of tenant " +
                              std::to_string(t) + " disagrees with the oracle");
    }
  }
  return Status::OK();
}

}  // namespace

Status SelfTest(uint64_t seed) {
  for (const WorkloadSpec& spec : kWorkloads) {
    RELVIEW_ASSIGN_OR_RETURN(Stream a, MakeStream(spec, seed, 64));
    RELVIEW_ASSIGN_OR_RETURN(Stream b, MakeStream(spec, seed, 64));
    auto same = [](const std::vector<Request>& x,
                   const std::vector<Request>& y) {
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (x[i].body != y[i].body || x[i].lane != y[i].lane ||
            x[i].expect_status != y[i].expect_status) {
          return false;
        }
      }
      return true;
    };
    if (!same(a.writes, b.writes)) {
      return Status::Internal(spec.name + ": one seed gave two streams");
    }
  }
  // Small instances of each shape, checked end to end by the oracle.
  for (WorkloadSpec spec : kWorkloads) {
    spec.rows = 128;
    spec.groups = 8;
    spec.tenants = std::min(spec.tenants, 2);
    RELVIEW_ASSIGN_OR_RETURN(Stream s, MakeStream(spec, seed, 64));
    RELVIEW_RETURN_IF_ERROR(CheckAgainstOracle(spec, s));
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace relview
