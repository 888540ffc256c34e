// Seeded request streams for the served-path benchmark.
//
// A stream is the complete, ordered list of POST /v1/batch requests one
// run sends, generated before the server starts and a pure function of
// (workload, seed, run length): the server sees only these bytes. The
// Emp/Dept/Mgr streams come from bench/loadgen_traffic.h's TrafficGen;
// the probe stream reuses TrafficGen's shard-local inserts over the
// probe-heavy schema relabelled into net/workload.h's id layout.
//
// Ordering contract: requests sharing a `lane` must be applied in stream
// order, one at a time (a lane is a tenant whose verdicts depend on the
// order, or an insert/delete pair). Requests of different lanes commute,
// so any interleaving the closed loop produces yields the same verdicts,
// counts and final state.

#ifndef RELVIEW_PERFBENCH_STREAMS_H_
#define RELVIEW_PERFBENCH_STREAMS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/workload.h"
#include "service/update.h"
#include "util/status.h"

namespace relview {
namespace perfbench {

enum class Kind { kIngest, kMixed, kProbe };

/// Sizing of one workload; perfbench/README.md gives the reasoning.
struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kIngest;
  int tenants = 1;
  uint32_t rows = 0;    ///< Seeded view rows per tenant.
  uint32_t groups = 0;  ///< Departments (B-groups on probe_8k).
  int writers = 4;      ///< Closed-loop writer connections.
  int readers = 0;      ///< Concurrent snapshot-reader connections.
  int batch_size = 8;
  /// Stream batches per requested second of run time (fixed work: the
  /// count depends on --seconds only, never on the machine's speed).
  double batches_per_second = 0;
  /// When > 0, every reject_every-th batch starts with an untranslatable
  /// update, so it is rejected before it mutates anything (no rollback
  /// reinstall, no engine reset): the reject path's fixed cost, sampled
  /// across the whole run on streams that have no rejects of their own.
  int reject_every = 0;
  /// Each writer reads a snapshot after each of its batches (workloads
  /// without a dedicated reader connection).
  bool read_after_write = false;
  /// Batches replayed in-process by the traced run (a stream prefix).
  int traced_batches = 0;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One generated request and its expected outcome.
struct Request {
  int tenant = 0;
  int lane = 0;
  std::string body;
  int updates = 0;
  /// 200 (commit) or 409 (rejected).
  int expect_status = 200;
  /// For 409s whose failing position is known in advance; -1 otherwise.
  int expect_failed_index = -1;
};

struct Stream {
  std::vector<Request> writes;
  /// Expected view size per tenant once every write has been applied.
  std::vector<uint64_t> final_view_rows;
  /// Expected final view per tenant as sorted "a,b" rows (mixed only;
  /// empty otherwise).
  std::vector<std::vector<std::string>> final_view;
};

/// Builds the stream of `batches` write batches for `spec` and `seed`.
Result<Stream> MakeStream(const WorkloadSpec& spec, uint64_t seed,
                          int batches);

/// A workload's tenants: Emp/Dept/Mgr via net::MakeTenants, or the
/// probe-heavy schema via ShardedService::Create. `store_root` empty runs
/// in memory.
Result<net::TenantSet> MakeWorkloadTenants(const WorkloadSpec& spec,
                                           const std::string& store_root);

/// The seed instance and schema of one tenant, for the in-process
/// translator replay.
struct TenantSchema {
  Universe universe;
  DependencySet sigma;
  AttrSet x, y;
  Relation seed{AttrSet()};
};
TenantSchema MakeTenantSchema(const WorkloadSpec& spec);

/// Decodes a POST /v1/batch body into view updates.
Result<std::vector<ViewUpdate>> DecodeBatch(const std::string& body);

/// Sorted "a,b" rendering of a snapshot's `"rows"` array.
Result<std::vector<std::string>> SnapshotRows(const std::string& body);

/// Sorted "a,b" rendering of a relation's rows.
std::vector<std::string> RelationRows(const Relation& rel);

/// The benchmark's own self-test: one seed yields byte-identical streams, the
/// Emp/Dept/Mgr outcome model agrees with the scratch-check oracle, and
/// the ingest/probe streams are translatable under that oracle on small
/// instances. Returns the first failure.
Status SelfTest(uint64_t seed);

}  // namespace perfbench
}  // namespace relview

#endif  // RELVIEW_PERFBENCH_STREAMS_H_
