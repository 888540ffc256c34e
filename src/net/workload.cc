#include "net/workload.h"

#include <utility>

#include "deps/dep_set.h"
#include "relational/relation.h"
#include "relational/tuple.h"
#include "relational/universe.h"
#include "relational/value.h"

namespace relview {
namespace net {

ShardedService* TenantSet::Find(const std::string& name) const {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return services[i].get();
  }
  return nullptr;
}

Result<TenantSet> MakeTenants(const TenantSpec& spec) {
  if (spec.tenants <= 0) {
    return Status::InvalidArgument("TenantSpec.tenants must be positive");
  }
  if (spec.depts == 0 || spec.depts > spec.emps) {
    return Status::InvalidArgument(
        "TenantSpec.depts must be in [1, emps] so every department is "
        "seeded");
  }
  if (spec.shards < 1) {
    return Status::InvalidArgument("TenantSpec.shards must be >= 1");
  }
  TenantSet out;
  for (int i = 0; i < spec.tenants; ++i) {
    RELVIEW_ASSIGN_OR_RETURN(Universe u, Universe::Parse("Emp Dept Mgr"));
    DependencySet sigma;
    RELVIEW_ASSIGN_OR_RETURN(sigma.fds,
                             FDSet::Parse(u, "Emp -> Dept; Dept -> Mgr"));
    Relation db(u.All());
    for (uint32_t e = 1; e <= spec.emps; ++e) {
      const uint32_t dept = DeptOfEmp(e, spec.depts);
      db.AddRow(Tuple({Value::Const(e), Value::Const(dept),
                       Value::Const(MgrOfDept(dept))}));
    }

    const std::string name = "t" + std::to_string(i);
    ShardedServiceOptions options;
    options.shards = spec.shards;
    if (!spec.store_root.empty()) {
      options.store_root = spec.store_root + "/" + name;
      options.checkpoint_every = spec.checkpoint_every;
      options.group_window_us = spec.group_window_us;
      options.commit_stall_ms = spec.commit_stall_ms;
    }
    RELVIEW_ASSIGN_OR_RETURN(
        std::unique_ptr<ShardedService> svc,
        ShardedService::Create(u, sigma, u.SetOf("Emp Dept"),
                               u.SetOf("Dept Mgr"), db,
                               std::move(options)));
    out.names.push_back(name);
    out.services.push_back(std::move(svc));
  }
  return out;
}

}  // namespace net
}  // namespace relview
