#include "shard/sharded_service.h"

#include <utility>

#include "obs/trace.h"
#include "util/small_util.h"
#include "view/translator.h"

namespace relview {

uint64_t ShardedSnapshot::view_size() const {
  uint64_t n = 0;
  for (const ViewSnapshot& s : shards) {
    if (s.view != nullptr) n += static_cast<uint64_t>(s.view->size());
  }
  return n;
}

bool ShardedSnapshot::ViewContains(const Tuple& t) const {
  for (const ViewSnapshot& s : shards) {
    if (s.view != nullptr && s.view->ContainsRow(t)) return true;
  }
  return false;
}

uint64_t ShardedSnapshot::database_size() const {
  uint64_t n = 0;
  for (const ViewSnapshot& s : shards) {
    if (s.database != nullptr) n += static_cast<uint64_t>(s.database->size());
  }
  return n;
}

bool ShardedSnapshot::DatabaseContains(const Tuple& t) const {
  for (const ViewSnapshot& s : shards) {
    if (s.database != nullptr && s.database->ContainsRow(t)) return true;
  }
  return false;
}

Result<std::unique_ptr<ShardedService>> ShardedService::Create(
    const Universe& u, const DependencySet& sigma, const AttrSet& x,
    const AttrSet& y, const Relation& seed, ShardedServiceOptions options) {
  if (options.shards < 1) {
    return Status::InvalidArgument("ShardedServiceOptions.shards must be "
                                   ">= 1");
  }
  ShardRouter router(u, x, y, options.shards);
  std::vector<std::unique_ptr<UpdateService>> shards;
  shards.reserve(static_cast<size_t>(options.shards));
  for (int i = 0; i < options.shards; ++i) {
    RELVIEW_ASSIGN_OR_RETURN(ViewTranslator vt,
                             ViewTranslator::Create(u, sigma, x, y));
    Relation db(u.All());
    for (const Tuple& row : seed.rows()) {
      if (router.ShardOfBase(row) == i) db.AddRow(row);
    }
    RELVIEW_RETURN_IF_ERROR(vt.Bind(std::move(db)));
    ServiceOptions svc;
    if (!options.store_root.empty()) {
      svc.store.dir = options.store_root + "/shard-" + std::to_string(i);
      if (options.checkpoint_every != 0) {
        svc.store.checkpoint_every = options.checkpoint_every;
      }
      if (options.rotate_records != 0) {
        svc.store.rotate_records = options.rotate_records;
      }
      svc.group_window_us = options.group_window_us;
      svc.commit_stall_ms = options.commit_stall_ms;
    }
    RELVIEW_ASSIGN_OR_RETURN(std::unique_ptr<UpdateService> shard,
                             UpdateService::Create(std::move(vt),
                                                   std::move(svc)));
    shards.push_back(std::move(shard));
  }
  return std::unique_ptr<ShardedService>(new ShardedService(
      std::move(router), u, x, y, std::move(shards)));
}

ShardedService::ShardedService(
    ShardRouter router, Universe universe, AttrSet x, AttrSet y,
    std::vector<std::unique_ptr<UpdateService>> shards)
    : router_(std::move(router)),
      universe_(std::move(universe)),
      view_attrs_(std::move(x)),
      complement_attrs_(std::move(y)),
      shards_(std::move(shards)) {}

BatchResult ShardedService::ApplyBatch(const std::vector<ViewUpdate>& updates) {
  BatchResult result;
  if (updates.empty()) return result;
  RELVIEW_TRACE_SPAN_N(fanout, "router.fanout");
  fanout.AddArg("updates", updates.size());

  // Route every update, remembering its position in the original batch so
  // a rejection can be reported against the caller's indices. A replace
  // whose tuples route apart decomposes into delete + insert (both carry
  // the same original index).
  struct SubBatch {
    std::vector<ViewUpdate> updates;
    std::vector<int> original;
  };
  std::vector<SubBatch> subs(shards_.size());
  for (size_t i = 0; i < updates.size(); ++i) {
    const ViewUpdate& u = updates[i];
    const int idx = static_cast<int>(i);
    switch (u.kind) {
      case UpdateKind::kInsert:
      case UpdateKind::kDelete: {
        const int s = router_.ShardOfView(u.t1);
        subs[s].updates.push_back(u);
        subs[s].original.push_back(idx);
        break;
      }
      case UpdateKind::kReplace: {
        const int s1 = router_.ShardOfView(u.t1);
        const int s2 = router_.ShardOfView(u.t2);
        if (s1 == s2) {
          subs[s1].updates.push_back(u);
          subs[s1].original.push_back(idx);
        } else {
          subs[s1].updates.push_back(ViewUpdate::Delete(u.t1));
          subs[s1].original.push_back(idx);
          subs[s2].updates.push_back(ViewUpdate::Insert(u.t2));
          subs[s2].original.push_back(idx);
        }
        break;
      }
      case UpdateKind::kNumUpdateKinds:
        result.status = Status::Internal("sentinel update kind")
                            .WithBatchIndex(idx);
        result.failed_index = idx;
        result.detail = "sentinel update kind";
        return result;
    }
  }

  // Commit shard by shard, ascending. Atomicity is per sub-batch: a
  // failure on shard s leaves shards < s committed (reported below), so
  // callers that need all-or-nothing must keep a batch on one shard —
  // which the router guarantees for batches sharing one join key.
  int committed_shards = 0;
  int fanned_out = 0;
  for (size_t s = 0; s < subs.size(); ++s) {
    if (subs[s].updates.empty()) continue;
    ++fanned_out;
    // One child span per touched shard: the slowest one is the batch's
    // straggler, also recorded in the timings for the wide event.
    RELVIEW_TRACE_SPAN_N(shard_span, "shard.apply");
    shard_span.AddArg("shard", s);
    shard_span.AddArg("updates", subs[s].updates.size());
    Timer shard_timer;
    BatchResult r = shards_[s]->ApplyBatch(subs[s].updates);
    const int64_t shard_nanos = shard_timer.ElapsedNanos();
    shard_span.Finish();
    // Aggregate the per-shard attribution whether or not the sub-batch
    // committed — a failing shard's time is still the batch's time.
    result.timings.stage_nanos += r.timings.stage_nanos;
    result.timings.append_nanos += r.timings.append_nanos;
    result.timings.commit_wait_nanos += r.timings.commit_wait_nanos;
    if (r.timings.cohort_batches > result.timings.cohort_batches) {
      result.timings.cohort_batches = r.timings.cohort_batches;
    }
    result.timings.led_cohort |= r.timings.led_cohort;
    if (s < 64) result.timings.shard_mask |= uint64_t{1} << s;
    ++result.timings.shards_touched;
    if (shard_nanos > result.timings.straggler_nanos) {
      result.timings.straggler_nanos = shard_nanos;
      result.timings.straggler_shard = static_cast<int>(s);
    }
    if (!r.ok()) {
      const int original =
          r.failed_index >= 0 &&
                  r.failed_index < static_cast<int>(subs[s].original.size())
              ? subs[s].original[r.failed_index]
              : -1;
      result.status = std::move(r.status).WithBatchIndex(original);
      result.failed_index = original;
      result.detail = std::move(r.detail);
      if (committed_shards > 0) {
        result.detail += "; note: " + std::to_string(committed_shards) +
                         " earlier shard sub-batch(es) of this batch had "
                         "already committed";
      }
      return result;
    }
    ++committed_shards;
  }
  fanout.AddArg("shards", fanned_out);
  return result;
}

ShardedSnapshot ShardedService::Snapshot() const {
  ShardedSnapshot out;
  out.shards.reserve(shards_.size());
  for (const std::unique_ptr<UpdateService>& s : shards_) {
    out.shards.push_back(s->Snapshot());
    out.version += out.shards.back().version;
  }
  return out;
}

uint64_t ShardedService::version() const {
  uint64_t v = 0;
  for (const std::unique_ptr<UpdateService>& s : shards_) v += s->version();
  return v;
}

uint64_t ShardedService::replayed_updates() const {
  uint64_t n = 0;
  for (const std::unique_ptr<UpdateService>& s : shards_) {
    n += s->replayed_updates();
  }
  return n;
}

Result<uint64_t> ShardedService::Checkpoint() {
  uint64_t covered = 0;
  for (const std::unique_ptr<UpdateService>& s : shards_) {
    RELVIEW_ASSIGN_OR_RETURN(uint64_t seq, s->Checkpoint());
    covered += seq;
  }
  return covered;
}

void ShardedService::RegisterTelemetry(TelemetryRegistry* registry,
                                       const std::string& section) const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->RegisterTelemetry(registry, section, static_cast<int>(i));
  }
}

}  // namespace relview
