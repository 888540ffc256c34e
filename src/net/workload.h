// Multi-tenant workload schema for the network front-end: each tenant is
// an independent ShardedService over the canonical Emp/Dept/Mgr chain
//
//     U = {Emp, Dept, Mgr},  Sigma = {Emp -> Dept, Dept -> Mgr},
//     X = {Emp, Dept},       Y = {Dept, Mgr}
//
// (X and Y are complementary with join key Dept — the attribute the load
// generator skews with a Zipf sampler, so hot departments concentrate
// both view rows and translation work).
//
// The deterministic id layout below is shared by the server-side seeding
// (MakeTenants) and the client-side traffic generator (bench/loadgen):
// both compute the same initial instance from (emps, depts) alone, so the
// generator can predict which updates are translatable without ever
// reading server state. Employee ids live in [1, emps]; department and
// manager ids are offset into disjoint ranges so the three roles never
// alias in the constant space.

#ifndef RELVIEW_NET_WORKLOAD_H_
#define RELVIEW_NET_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "shard/sharded_service.h"
#include "util/status.h"

namespace relview {
namespace net {

/// First department id (employee ids start at 1 and stay below this).
inline constexpr uint32_t kDeptBase = 1'000'000;
/// First manager id.
inline constexpr uint32_t kMgrBase = 2'000'000;

/// The seeded department of employee `emp` under a `depts`-department
/// tenant: employees are dealt round-robin.
inline constexpr uint32_t DeptOfEmp(uint32_t emp, uint32_t depts) {
  return kDeptBase + (depts == 0 ? 0 : emp % depts);
}

/// The (unique, FD-respecting) manager of department `dept`.
inline constexpr uint32_t MgrOfDept(uint32_t dept) {
  return kMgrBase + (dept - kDeptBase);
}

/// Sizing for MakeTenants.
struct TenantSpec {
  /// Number of independent tenants ("t0", "t1", ...).
  int tenants = 4;
  /// Employees seeded per tenant (ids 1..emps).
  uint32_t emps = 64;
  /// Departments per tenant (join-key cardinality).
  uint32_t depts = 8;
  /// When non-empty, each tenant persists through per-shard DurableStores
  /// under `<store_root>/<tenant>/shard-<i>`; empty runs in-memory.
  std::string store_root;
  /// Checkpoint cadence forwarded to StoreOptions (0 = store default).
  uint64_t checkpoint_every = 0;
  /// Write-path shards per tenant (>= 1). 1 preserves the unsharded
  /// semantics exactly (one UpdateService behind a degenerate router).
  int shards = 1;
  /// Leader gathering window forwarded to ServiceOptions::group_window_us.
  uint32_t group_window_us = 0;
  /// Group-commit stall watchdog forwarded to
  /// ServiceOptions::commit_stall_ms (0 disables).
  uint32_t commit_stall_ms = 0;
};

/// The set of tenant services the server routes between. Movable only.
struct TenantSet {
  std::vector<std::string> names;
  std::vector<std::unique_ptr<ShardedService>> services;

  /// The service for `name`, or nullptr when unknown.
  ShardedService* Find(const std::string& name) const;
  int size() const { return static_cast<int>(services.size()); }
};

/// Builds `spec.tenants` independent services, each seeded with the
/// deterministic instance {(e, DeptOfEmp(e), MgrOfDept(DeptOfEmp(e)))
/// : e in [1, emps]}. With a store_root, tenants recover whatever a
/// previous incarnation journaled under the same root.
Result<TenantSet> MakeTenants(const TenantSpec& spec);

}  // namespace net
}  // namespace relview

#endif  // RELVIEW_NET_WORKLOAD_H_
